package check

import (
	"context"

	"wayplace/internal/engine"
	"wayplace/internal/sim"
)

// Coupled runs one engine cell through the coupled reference loop —
// sim.RunCoupled, or sim.RunAdaptive for an adaptive cell — on the
// workload's binaries. The spec is resolved exactly as the engine
// resolves it (engine.Resolve, engine.UsesPlaced), and past that point
// nothing is shared with the engine's single-pass groups, so a grid
// whose engine results match Coupled cell for cell was computed
// correctly by the grouped, recorded and replayed machinery. base is
// the engine's base configuration (engine.WithBaseConfig).
func Coupled(ctx context.Context, w *engine.Workload, base sim.Config, spec engine.RunSpec) (*sim.RunStats, []sim.AreaChange, error) {
	prog := w.Original
	if engine.UsesPlaced(spec) && w.Placed != nil {
		prog = w.Placed
	}
	cfg := engine.Resolve(base, spec)
	if spec.Adaptive.Enabled() {
		return sim.RunAdaptive(ctx, prog, cfg, spec.Adaptive.Policy())
	}
	rs, err := sim.RunCoupled(ctx, prog, cfg)
	return rs, nil, err
}
