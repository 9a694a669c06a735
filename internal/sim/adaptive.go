package sim

import (
	"context"
	"fmt"

	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/energy"
	"wayplace/internal/mem"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// Section 4.1 notes that the operating system can choose the
// way-placement area "either on a static or per-program basis, even
// adjusting it during program execution". RunAdaptive implements that
// extension: an OS policy that periodically inspects the fetch
// behaviour and resizes the area, flushing the instruction cache on
// every change so explicit placement stays consistent.

// AdaptivePolicy is the OS's area-sizing heuristic.
type AdaptivePolicy struct {
	// IntervalInstrs is the decision period.
	IntervalInstrs uint64
	// StartSize, MinSize, MaxSize bound the area (bytes, multiples of
	// the I-TLB page size).
	StartSize, MinSize, MaxSize uint32
	// GrowThreshold: while the fraction of fetches landing inside the
	// area stays below this, the area doubles — the hot code does not
	// fit yet.
	GrowThreshold float64
	// AliasMissRate: if the window miss rate exceeds this while the
	// area is larger than the cache, the area halves — way-placed
	// lines are evicting each other in their designated ways.
	AliasMissRate float64

	// Inspect, when non-nil, is called after every OS decision point
	// with the live I-TLB and I-cache. Test hook: internal/check uses
	// it to assert runtime invariants (e.g. I-TLB way-bit coherence)
	// while the OS is actively resizing the area.
	Inspect func(itlb *tlb.TLB, icache *cache.Cache)
}

// DefaultAdaptivePolicy returns a reasonable OS heuristic for the
// given machine. The area is allowed to grow to twice the I-cache
// capacity — past that point designated ways are so over-committed
// that the shrink rule always fires first, so a larger bound would
// only let small-cache sweeps mark useless pages way-placed.
func DefaultAdaptivePolicy(icache cache.Config, pageBytes int) AdaptivePolicy {
	maxSize := uint32(icache.SizeBytes) * 2
	if maxSize < uint32(pageBytes) {
		maxSize = uint32(pageBytes)
	}
	return AdaptivePolicy{
		IntervalInstrs: 50_000,
		StartSize:      uint32(pageBytes),
		MinSize:        uint32(pageBytes),
		MaxSize:        maxSize,
		GrowThreshold:  0.95,
		AliasMissRate:  0.02,
	}
}

// AreaChange records one OS resize decision.
type AreaChange struct {
	AtInstr uint64
	Size    uint32
}

// RunAdaptive executes prog under the way-placement scheme with the
// OS resizing the area per pol, honouring ctx cancellation between OS
// decision intervals. It returns the run statistics and the resize
// trace.
//
// RunAdaptive is the coupled reference for adaptive runs, kept as an
// independent implementation: the OS loop runs in line with the CPU,
// where production runs evaluate the policy as an adaptive model of a
// single-pass group (ModelSpec.Adaptive). internal/check compares the
// two bit for bit. Grids should not call it: set
// engine.RunSpec.Adaptive (or the Adaptive field of an api.RunRequest)
// and the engine runs the cell, memoised and deduplicated like any
// static cell.
func RunAdaptive(ctx context.Context, prog *obj.Program, cfg Config, pol AdaptivePolicy) (*RunStats, []AreaChange, error) {
	if pol.IntervalInstrs == 0 || pol.StartSize == 0 {
		return nil, nil, fmt.Errorf("sim: adaptive policy needs an interval and a start size")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Scheme = energy.WayPlacement
	cfg.WPSize = pol.StartSize
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 2_000_000_000
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	m := mem.New(cfg.Mem)
	c := cpu.New(prog, m)
	c.Timing = cfg.Timing

	itlb, err := tlb.New(cfg.ITLB)
	if err != nil {
		return nil, nil, err
	}
	dtlb, err := tlb.New(cfg.DTLB)
	if err != nil {
		return nil, nil, err
	}
	dcache, err := cache.NewData(cfg.DCache)
	if err != nil {
		return nil, nil, err
	}
	engine, err := cache.NewWayPlacement(cfg.ICache, itlb)
	if err != nil {
		return nil, nil, err
	}
	size := pol.StartSize
	if err := itlb.SetWPArea(prog.Base, size); err != nil {
		return nil, nil, err
	}
	c.IFetch = engine
	c.ITLB = itlb
	c.DCache = dcache
	c.DTLB = dtlb

	changes := []AreaChange{{AtInstr: 0, Size: size}}
	var prev cache.Stats
	for !c.Halted {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if _, err := c.RunPieces(pol.IntervalInstrs, cfg.MaxInstrs, nil); err != nil {
			return nil, nil, err
		}
		if c.Halted {
			break
		}
		// OS decision point: inspect the window.
		cur := engine.Cache().Stats
		dFetch := cur.Fetches - prev.Fetches
		if dFetch == 0 {
			prev = cur
			continue
		}
		wpFrac := float64(cur.WPAreaFetches-prev.WPAreaFetches) / float64(dFetch)
		missRate := float64(cur.Misses-prev.Misses) / float64(dFetch)
		prev = cur

		newSize := size
		switch {
		case size > uint32(cfg.ICache.SizeBytes) && missRate > pol.AliasMissRate && size/2 >= pol.MinSize:
			// The area overcommits the cache and designated-way
			// aliasing is causing misses: shrink.
			newSize = size / 2
		case wpFrac < pol.GrowThreshold && size*2 <= pol.MaxSize:
			newSize = size * 2
		}
		if newSize != size {
			size = newSize
			if err := itlb.SetWPArea(prog.Base, size); err != nil {
				return nil, nil, err
			}
			// The OS flushes the I-cache so stale placements die, and
			// invalidates the I-TLB so resident entries stop delivering
			// the way-placement bit of the *previous* area (the bit is
			// cached per entry; without the invalidate the hardware
			// silently disagrees with the page tables until eviction).
			engine.Cache().Flush()
			itlb.Invalidate()
			changes = append(changes, AreaChange{AtInstr: c.Instrs, Size: size})
		}
		if pol.Inspect != nil {
			pol.Inspect(itlb, engine.Cache())
		}
	}

	rs := &RunStats{
		Scheme:    energy.WayPlacement,
		Instrs:    c.Instrs,
		Cycles:    c.Cycles,
		IStats:    engine.Cache().Stats,
		DStats:    dcache.Cache().Stats,
		ITLBStats: itlb.Stats,
		DTLBStats: dtlb.Stats,
		MemStats:  m.Stats,
		Checksum:  c.Regs[0],
		MemHash:   m.Hash(cpu.StackRegionBase),
	}
	rs.Energy = energy.Compute(cfg.Energy, energy.SystemStats{
		Scheme: energy.WayPlacement,
		ICfg:   cfg.ICache,
		IStats: rs.IStats,
		DCfg:   cfg.DCache,
		DStats: rs.DStats,
		ITLB:   rs.ITLBStats,
		DTLB:   rs.DTLBStats,
		Cycles: rs.Cycles,
	})
	return rs, changes, nil
}
