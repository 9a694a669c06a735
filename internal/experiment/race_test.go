//go:build race

package experiment

// raceEnabled reports a -race build (TestFigure4FullSuite).
const raceEnabled = true
