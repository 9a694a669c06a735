//go:build race

package check

// raceEnabled reports a -race build (relocSwept).
const raceEnabled = true
