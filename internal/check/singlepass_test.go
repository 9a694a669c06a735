package check

import (
	"context"
	"testing"

	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/sim"
)

// TestSinglePassMatchesPerCell sweeps the whole benchmark suite on the
// Small inputs and compares one coalesced sim.RunMulti pass per binary
// — mixed geometries, line sizes, schemes, ablation switches and the
// adaptive policy all sharing a single fetch stream — field by field
// against sequential per-cell execution through the coupled reference
// loop. Zero divergence in any statistic is the acceptance bar for the
// single-pass machinery.
func TestSinglePassMatchesPerCell(t *testing.T) {
	base := sim.Default()
	base.MaxInstrs = 200_000_000

	// Geometry zoo: the default 32KB/32-way, a small low-associativity
	// corner, a wide-line configuration (line larger than the
	// segmentation block of line-32 models), and an LRU variant.
	geoDefault := base.ICache
	geoSmall := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, Policy: cache.RoundRobin}
	geoWide := cache.Config{SizeBytes: 16 << 10, Ways: 16, LineBytes: 64, Policy: cache.RoundRobin}
	geoLRU := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, Policy: cache.LRU}

	pol := sim.DefaultAdaptivePolicy(geoDefault, base.ITLB.PageBytes)

	originalModels := []sim.ModelSpec{
		{Geometry: geoDefault, Scheme: energy.Baseline},
		{Geometry: geoSmall, Scheme: energy.Baseline},
		{Geometry: geoWide, Scheme: energy.Baseline, Style: energy.RAMTag},
		{Geometry: geoLRU, Scheme: energy.Baseline},
		{Geometry: geoDefault, Scheme: energy.WayMemoization},
		{Geometry: geoWide, Scheme: energy.WayMemoization},
	}
	placedModels := []sim.ModelSpec{
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 16 << 10},
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 2 << 10},
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 2 << 10, OracleHint: true},
		{Geometry: geoDefault, Scheme: energy.WayPlacement, WPSize: 16 << 10, NoSameLine: true},
		{Geometry: geoSmall, Scheme: energy.WayPlacement, WPSize: 4 << 10},
		{Geometry: geoWide, Scheme: energy.WayPlacement, WPSize: 8 << 10},
		{Geometry: geoDefault, Adaptive: &pol},
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
			legs := []struct {
				kind   string
				models []sim.ModelSpec
			}{
				{"original", originalModels},
				{"placed", placedModels},
			}
			for _, leg := range legs {
				prog := original
				if leg.kind == "placed" {
					prog = placed
				}
				multi, err := sim.RunMulti(ctx, prog, base, leg.models)
				if err != nil {
					t.Fatalf("%s: RunMulti: %v", leg.kind, err)
				}
				for i, spec := range leg.models {
					if multi[i].Err != nil {
						t.Errorf("%s model %d: %v", leg.kind, i, multi[i].Err)
						continue
					}
					var want *sim.RunStats
					var wantChanges []sim.AreaChange
					if spec.Adaptive != nil {
						want, wantChanges, err = sim.RunAdaptive(ctx, prog, base, *spec.Adaptive)
					} else {
						cfg := base
						cfg.ICache = spec.Geometry
						cfg.Scheme = spec.Scheme
						cfg.Style = spec.Style
						cfg.WPSize = spec.WPSize
						cfg.OracleHint = spec.OracleHint
						cfg.NoSameLine = spec.NoSameLine
						want, err = sim.RunCoupled(ctx, prog, cfg)
					}
					if err != nil {
						t.Fatalf("%s model %d: per-cell reference: %v", leg.kind, i, err)
					}
					for _, d := range StatDiffs(multi[i].Stats, want) {
						t.Errorf("%s model %d (%+v): %s", leg.kind, i, spec, d)
					}
					if spec.Adaptive != nil {
						if len(multi[i].AreaChanges) != len(wantChanges) {
							t.Errorf("%s model %d: %d area changes, want %d",
								leg.kind, i, len(multi[i].AreaChanges), len(wantChanges))
						} else {
							for j := range wantChanges {
								if multi[i].AreaChanges[j] != wantChanges[j] {
									t.Errorf("%s model %d: area change %d = %+v, want %+v",
										leg.kind, i, j, multi[i].AreaChanges[j], wantChanges[j])
								}
							}
						}
					}
				}
			}
		})
	}
}
