// Package sim wires the substrate models — core, caches, TLBs, memory
// and the energy model — into the full simulated platform of the
// paper's Table 1, and exposes the two operations the evaluation flow
// needs: a fast functional profiling run (training input) and a
// detailed timing/energy run (reference input) under one of the three
// fetch schemes.
package sim

import (
	"context"

	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/energy"
	"wayplace/internal/mem"
	"wayplace/internal/obj"
	"wayplace/internal/profile"
	"wayplace/internal/tlb"
)

// Config describes one simulated machine.
type Config struct {
	ICache cache.Config
	DCache cache.Config
	ITLB   tlb.Config
	DTLB   tlb.Config
	Mem    mem.Config
	Timing cpu.Timing
	Energy energy.Params

	Scheme energy.Scheme
	// Style selects CAM-tag (XScale, default) or conventional RAM-tag
	// arrays; the fetch behaviour is identical, only energy differs.
	Style energy.ArrayStyle
	// WPSize is the way-placement area size in bytes (way-placement
	// scheme only). It must be a multiple of the I-TLB page size. The
	// area starts at the program base — the layout pass put the
	// hottest chains there.
	WPSize uint32

	// MaxInstrs bounds a run; a well-formed benchmark halts first.
	MaxInstrs uint64

	// Ablation switches (way-placement scheme only).
	OracleHint bool // perfect way-placement prediction instead of the 1-bit hint
	NoSameLine bool // disable the same-line tag-check skip
}

// Default returns the paper's Table 1 configuration: 32KB 32-way
// I- and D-caches with 32B lines, 32-entry fully-associative TLBs,
// 50-cycle memory, single-issue in-order core.
func Default() Config {
	ic := cache.Config{SizeBytes: 32 << 10, Ways: 32, LineBytes: 32, Policy: cache.RoundRobin}
	return Config{
		ICache:    ic,
		DCache:    ic,
		ITLB:      tlb.Config{Entries: 32, PageBytes: 1 << 10},
		DTLB:      tlb.Config{Entries: 32, PageBytes: 1 << 10},
		Mem:       mem.DefaultConfig(),
		Timing:    cpu.DefaultTiming(),
		Energy:    energy.Default(),
		Scheme:    energy.Baseline,
		WPSize:    0,
		MaxInstrs: 2_000_000_000,
	}
}

// RunStats is the complete outcome of one detailed run.
type RunStats struct {
	Scheme energy.Scheme
	Instrs uint64
	Cycles uint64

	IStats    cache.Stats
	DStats    cache.Stats
	ITLBStats tlb.Stats
	DTLBStats tlb.Stats
	MemStats  mem.Stats

	Energy energy.Breakdown

	// Checksum is R0 at halt — benchmarks leave a result there so
	// runs can be cross-checked between schemes and layouts.
	Checksum uint32
	// MemHash digests the final memory contents below the stack
	// region (mem.Memory.Hash up to cpu.StackRegionBase), so
	// differential checks can compare whole-memory side effects, not
	// just the R0 checksum, across schemes and layouts. Dead stack
	// frames are excluded: they hold spilled return addresses, which
	// are layout-dependent PC values.
	MemHash uint64
}

// CPI returns cycles per instruction.
func (r *RunStats) CPI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instrs)
}

// RunContext executes prog on the configured machine under ctx: the
// instruction loop checks for cancellation periodically and returns
// ctx.Err() once the context is done. The configuration is validated
// eagerly before any machine state is built.
//
// RunContext is a thin one-model wrapper over RunMulti — the machine
// is split into a fetch-event producer and the configured
// instruction-side model. Statistics are bit-identical to the coupled
// reference loop (RunCoupled); internal/check enforces this.
func RunContext(ctx context.Context, prog *obj.Program, cfg Config) (*RunStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res, err := RunMulti(ctx, prog, cfg, []ModelSpec{ModelSpecOf(cfg)})
	if err != nil {
		return nil, err
	}
	if res[0].Err != nil {
		return nil, res[0].Err
	}
	return res[0].Stats, nil
}

// ProfileRun executes prog functionally (no caches, no timing detail)
// and returns the basic-block profile — the paper's training run on
// the small input.
func ProfileRun(prog *obj.Program, maxInstrs uint64) (*profile.Profile, uint32, error) {
	m := mem.New(mem.DefaultConfig())
	c := cpu.New(prog, m)
	res, err := c.Run(maxInstrs)
	if err != nil {
		return nil, 0, err
	}
	return profile.FromInstrCounts(prog, res.InstrCounts), c.Regs[0], nil
}
