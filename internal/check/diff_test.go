package check

import (
	"context"
	"strings"
	"testing"

	"wayplace/internal/bench"
	"wayplace/internal/layout"
	"wayplace/internal/sim"
)

// shortSuite is the subset exercised under -short: one benchmark per
// broad shape class (bit-twiddling loop, table cipher, image kernel,
// pointer-chasing trie).
var shortSuite = map[string]bool{
	"bitcount": true,
	"sha":      true,
	"susan_s":  true,
	"patricia": true,
}

// TestDifferentialAllBenchmarks is the acceptance gate: every
// benchmark in the suite, on its Small input, must be architecturally
// identical under all six scheme variants and satisfy every stat
// invariant. Small is the profiling input, so the runs are quick
// enough to sweep the whole suite here; the Large input is swept by
// `wpbench -selfcheck`.
func TestDifferentialAllBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		if testing.Short() && !shortSuite[b.Name] {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.Default()
			cfg.MaxInstrs = 200_000_000
			original, placed := buildPair(t, b, cfg.MaxInstrs)
			vs, err := Differential(context.Background(), original, placed, cfg, 2<<10)
			if err != nil {
				t.Fatalf("differential: %v", err)
			}
			if len(vs) != 6 {
				t.Fatalf("got %d variants, want 6", len(vs))
			}
		})
	}
}

// An invalid way-placement area is a per-model error in the single-pass
// leg, where it records no trace (per-cell mode) or rides in a pass
// that records one (coalesced). Either way the harness must report the
// reference leg's own error with the variants that completed before it,
// not a missing recording.
func TestDifferentialInvalidAreaReportsModelError(t *testing.T) {
	b, err := bench.ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxInstrs = 200_000_000
	original, placed := buildPair(t, b, cfg.MaxInstrs)
	for _, coalesce := range []bool{false, true} {
		vs, err := DifferentialMode(context.Background(), original, placed, cfg, 1500, coalesce)
		if err == nil || !strings.Contains(err.Error(), "check: differential wayplace:") ||
			strings.Contains(err.Error(), "recorded no fetch trace") {
			t.Errorf("coalesce=%v: err = %v, want the wayplace variant's own error", coalesce, err)
		}
		if len(vs) != 2 {
			t.Errorf("coalesce=%v: got %d variants, want baseline and waymem", coalesce, len(vs))
		}
	}
}

// TestDifferentialCatchesDivergence feeds the equivalence layer a
// variant set where one scheme "computed" a different checksum and
// memory image, and demands both diverges are reported.
func TestDifferentialCatchesDivergence(t *testing.T) {
	u, err := bench.All()[0].Build(bench.Small)
	if err != nil {
		t.Fatal(err)
	}
	original, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxInstrs = 200_000_000
	rs, err := sim.RunContext(context.Background(), original, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := *rs
	bad.Checksum ^= 1
	bad.MemHash ^= 1
	bad.Instrs++
	errs := equivalence([]Variant{
		{Name: "baseline", Stats: rs},
		{Name: "wayplace", Stats: &bad},
	})
	if len(errs) != 3 {
		t.Fatalf("got %d equivalence violations, want 3 (checksum, instrs, memory): %v", len(errs), errs)
	}
}
