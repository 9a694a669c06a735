package engine

import (
	"wayplace/internal/sim"
)

// AdaptiveSpec is the comparable, side-effect-free form of
// sim.AdaptivePolicy, so adaptive-OS cells can sit in the same grids,
// dedup maps and run-cache keys as static cells instead of going
// through a separate entry point. The zero value means "not adaptive";
// any non-zero value makes the cell an adaptive model (sim.ModelSpec's
// Adaptive) in its stream's single-pass group, under the equivalent
// policy (the Inspect hook, being a function, cannot be part of a cell
// identity and is deliberately absent).
type AdaptiveSpec struct {
	IntervalInstrs              uint64
	StartSize, MinSize, MaxSize uint32
	GrowThreshold               float64
	AliasMissRate               float64
}

// Enabled reports whether the spec selects the adaptive-OS path.
func (a AdaptiveSpec) Enabled() bool { return a != AdaptiveSpec{} }

// Policy expands the spec into the sim-level policy.
func (a AdaptiveSpec) Policy() sim.AdaptivePolicy {
	return sim.AdaptivePolicy{
		IntervalInstrs: a.IntervalInstrs,
		StartSize:      a.StartSize,
		MinSize:        a.MinSize,
		MaxSize:        a.MaxSize,
		GrowThreshold:  a.GrowThreshold,
		AliasMissRate:  a.AliasMissRate,
	}
}

// AdaptiveSpecOf captures a sim-level policy as a cell identity. The
// Inspect hook is dropped: it is a test-only observer and two cells
// differing only in hooks are the same simulation.
func AdaptiveSpecOf(p sim.AdaptivePolicy) AdaptiveSpec {
	return AdaptiveSpec{
		IntervalInstrs: p.IntervalInstrs,
		StartSize:      p.StartSize,
		MinSize:        p.MinSize,
		MaxSize:        p.MaxSize,
		GrowThreshold:  p.GrowThreshold,
		AliasMissRate:  p.AliasMissRate,
	}
}
