package check

import (
	"context"
	"fmt"
	"testing"

	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// TestReplayMatchesLive sweeps the benchmark suite on the Small inputs:
// one live sim.RecordMulti pass per binary, then a sim.ReplayMulti of
// the same models from the recording. Every model — baseline,
// way-memoization, way-placement at several areas including one that
// saturates the text image, the oracle hint, the per-event NoSameLine
// model, the adaptive policy and one invalid spec — must come back
// with the same per-model error or deep-equal statistics and area
// trace.
func TestReplayMatchesLive(t *testing.T) {
	base := sim.Default()
	base.MaxInstrs = 200_000_000
	geo := base.ICache
	geoSmall := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, Policy: cache.RoundRobin}
	geoWide := cache.Config{SizeBytes: 16 << 10, Ways: 16, LineBytes: 64, Policy: cache.LRU}
	pol := sim.DefaultAdaptivePolicy(geo, base.ITLB.PageBytes)

	originalModels := []sim.ModelSpec{
		{Geometry: geo, Scheme: energy.Baseline},
		{Geometry: geoWide, Scheme: energy.Baseline, Style: energy.RAMTag},
		{Geometry: geo, Scheme: energy.WayMemoization},
		{Geometry: geoSmall, Scheme: energy.WayMemoization},
	}
	placedModels := []sim.ModelSpec{
		{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 2 << 10},
		{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 16 << 10},
		{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 1 << 20}, // saturated
		{Geometry: geoSmall, Scheme: energy.WayPlacement, WPSize: 4 << 10},
		{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 2 << 10, OracleHint: true},
		{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 16 << 10, NoSameLine: true},
		{Geometry: geo, Adaptive: &pol},
		{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 1500}, // not page-aligned: per-model error
	}

	for _, b := range bench.All() {
		b := b
		if testing.Short() && !shortSuite[b.Name] {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			original, placed := buildPair(t, b, base.MaxInstrs)
			ctx := context.Background()
			for _, leg := range []struct {
				prog   *obj.Program
				models []sim.ModelSpec
			}{{original, originalModels}, {placed, placedModels}} {
				live, tr, err := sim.RecordMulti(ctx, leg.prog, base, leg.models)
				if err != nil {
					t.Fatalf("RecordMulti: %v", err)
				}
				if tr == nil {
					t.Fatal("complete pass recorded no trace")
				}
				if tr.Instrs() != live[0].Stats.Instrs {
					t.Errorf("trace holds %d events, pass retired %d instructions", tr.Instrs(), live[0].Stats.Instrs)
				}
				replayed, err := sim.ReplayMulti(ctx, tr, leg.prog, base, leg.models)
				if err != nil {
					t.Fatalf("ReplayMulti: %v", err)
				}
				for i, spec := range leg.models {
					for _, d := range ReplayDiffs(fmt.Sprintf("model %d (%+v)", i, spec), replayed[i], live[i]) {
						t.Error(d)
					}
				}
				if live[len(live)-1].Err == nil && leg.prog == placed {
					t.Error("invalid spec did not fail")
				}
			}
		})
	}
}

// buildPair builds a benchmark's Small input and links its original
// and profile-placed images.
func buildPair(t *testing.T, b bench.Benchmark, maxInstrs uint64) (original, placed *obj.Program) {
	t.Helper()
	u, err := b.Build(bench.Small)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	original, err = layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatalf("link original: %v", err)
	}
	prof, _, err := sim.ProfileRun(original, maxInstrs)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	placed, err = layout.Link(u, prof, textBase)
	if err != nil {
		t.Fatalf("link placed: %v", err)
	}
	return original, placed
}
