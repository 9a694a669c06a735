package engine_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/sim"
)

// spyTier is a StoreTier that only counts how often it is consulted.
type spyTier struct {
	mu          sync.Mutex
	loads, save int
}

func (s *spyTier) Load(string) (*sim.RunStats, []sim.AreaChange, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	return nil, nil, false
}

func (s *spyTier) Save(string, *sim.RunStats, []sim.AreaChange) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.save++
}

// TestRunRejectsInvalidCells: a spec that breaks a cell rule would
// alias a valid cell (a distinct key, identical statistics), so Run
// fails it before planning — a nil slot and a CellError wrapping the
// SpecError, no simulation, no store traffic, and a progress report
// so Done still reaches Total — while the valid cells of the batch run.
func TestRunRejectsInvalidCells(t *testing.T) {
	icfg := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	pol := sim.DefaultAdaptivePolicy(icfg, 1<<10)
	pol.IntervalInstrs = 10_000
	adaptive := engine.RunSpec{Workload: "tiny1", ICache: icfg, Scheme: energy.WayPlacement,
		Adaptive: engine.AdaptiveSpecOf(pol)}
	with := func(s engine.RunSpec, mutate func(*engine.RunSpec)) engine.RunSpec {
		mutate(&s)
		return s
	}
	baseline := engine.RunSpec{Workload: "tiny1", ICache: icfg, Scheme: energy.Baseline}

	for _, tc := range []struct {
		name  string
		spec  engine.RunSpec
		field string // the Violation.Field the rule names
	}{
		{"baseline+wpsize", with(baseline, func(s *engine.RunSpec) { s.WPSize = 4096 }), "WPSize"},
		{"baseline+oracle", with(baseline, func(s *engine.RunSpec) { s.OracleHint = true }), "OracleHint"},
		{"adaptive+nosameline", with(adaptive, func(s *engine.RunSpec) { s.NoSameLine = true }), "NoSameLine"},
		{"adaptive+oracle", with(adaptive, func(s *engine.RunSpec) { s.OracleHint = true }), "OracleHint"},
		{"adaptive+ramtag", with(adaptive, func(s *engine.RunSpec) { s.Style = energy.RAMTag }), "Style"},
		{"adaptive+wpsize", with(adaptive, func(s *engine.RunSpec) { s.WPSize = 4096 }), "WPSize"},
		{"adaptive+baseline", with(adaptive, func(s *engine.RunSpec) { s.Scheme = energy.Baseline }), "Adaptive"},
		{"adaptive-no-interval", with(adaptive, func(s *engine.RunSpec) { s.Adaptive.IntervalInstrs = 0 }), "Adaptive.IntervalInstrs"},
		{"bad-geometry", with(baseline, func(s *engine.RunSpec) { s.ICache.Ways = 3 }), "ICache"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var serr *engine.SpecError
			if err := tc.spec.Validate(); !errors.As(err, &serr) || serr.Violations[0].Field != tc.field {
				t.Fatalf("Validate() = %v, want a violation of %s", err, tc.field)
			}

			tier := &spyTier{}
			var mu sync.Mutex
			var seen []engine.Progress
			e := engine.New(testProvider(t), engine.WithStore(tier),
				engine.WithProgress(func(p engine.Progress) {
					mu.Lock()
					seen = append(seen, p)
					mu.Unlock()
				}))
			good := engine.RunSpec{Workload: "tiny2", ICache: icfg, Scheme: energy.Baseline}
			res, err := e.Run(context.Background(), []engine.RunSpec{tc.spec, good, tc.spec})
			if res[0] != nil || res[2] != nil {
				t.Error("an invalid cell got a result")
			}
			if res[1] == nil || res[1].Stats == nil {
				t.Error("the valid cell of the batch did not run")
			}
			var cerr *engine.CellError
			if !errors.As(err, &cerr) || cerr.Spec != tc.spec || !errors.As(err, &serr) {
				t.Fatalf("err = %v, want a CellError for %v wrapping a SpecError", err, tc.spec)
			}
			if merr := err.(*engine.MultiError); len(merr.Errors) != 1 {
				t.Errorf("%d cell errors, want 1 (a duplicate reports once)", len(merr.Errors))
			}
			if e.Misses() != 1 || e.Hits() != 0 {
				t.Errorf("misses %d, hits %d; want only the valid cell simulated", e.Misses(), e.Hits())
			}
			if tier.loads != 1 || tier.save != 1 {
				t.Errorf("store loads %d, saves %d; want only the valid cell's", tier.loads, tier.save)
			}
			if len(seen) != 2 || seen[len(seen)-1].Done != 2 || seen[len(seen)-1].Total != 2 {
				t.Fatalf("progress %+v, want two reports reaching 2/2", seen)
			}
			failed := 0
			for _, p := range seen {
				if p.Err != nil {
					failed++
					if p.Spec != tc.spec {
						t.Errorf("failure reported for %v", p.Spec)
					}
				}
			}
			if failed != 1 {
				t.Errorf("%d failed progress reports, want 1", failed)
			}
		})
	}
}
