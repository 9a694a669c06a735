package check

import (
	"context"
	"testing"

	"wayplace/internal/layout"
	"wayplace/internal/progen"
	"wayplace/internal/sim"
)

// FuzzDifferential drives randomly generated programs through the
// full differential harness: whatever control flow and memory traffic
// progen emits, all six scheme variants must agree architecturally
// and every stat invariant must hold. The seed parity picks the
// single-pass execution shape — coalesced multi-model passes or
// per-cell single-model passes — so both shapes of sim.RunMulti are
// fuzzed against the coupled reference. Every third seed runs on
// thrashGeometry, where a loop that evicts its own lines makes the
// single pass fall back from closed-form repeats to run-by-run
// consumption. The seed corpus runs on every plain `go test`, so the
// harness is exercised on each tier-1 pass even without -fuzz.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		u := progen.Unit(seed, progen.DefaultOptions())
		original, err := layout.LinkOriginal(u, textBase)
		if err != nil {
			t.Fatalf("link original: %v", err)
		}
		cfg := sim.Default()
		cfg.MaxInstrs = 10_000_000
		if seed%3 == 0 {
			cfg.ICache = thrashGeometry
		}
		prof, _, err := sim.ProfileRun(original, cfg.MaxInstrs)
		if err != nil {
			// progen guarantees termination, so a budget blowout here
			// is a generator bug worth failing on.
			t.Fatalf("profile: %v", err)
		}
		placed, err := layout.Link(u, prof, textBase)
		if err != nil {
			t.Fatalf("link placed: %v", err)
		}
		if _, err := DifferentialMode(context.Background(), original, placed, cfg, 2<<10, seed%2 == 0); err != nil {
			t.Fatalf("differential (seed %d): %v", seed, err)
		}
	})
}
