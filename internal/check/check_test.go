package check

import (
	"context"
	"strings"
	"testing"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/layout"
	"wayplace/internal/progen"
	"wayplace/internal/sim"
	"wayplace/internal/tlb"
)

const textBase = 0x0001_0000

// runProgen executes one progen program under the given scheme and
// returns the (config, stats) pair the invariants consume.
func runProgen(t *testing.T, seed uint64, scheme energy.Scheme, mutate func(*sim.Config)) (sim.Config, *sim.RunStats) {
	t.Helper()
	p := progen.Program(seed, progen.DefaultOptions(), textBase)
	cfg := sim.Default()
	cfg.MaxInstrs = 10_000_000
	cfg.Scheme = scheme
	if scheme == energy.WayPlacement {
		cfg.WPSize = 2 << 10
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rs, err := sim.RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatalf("sim.RunContext: %v", err)
	}
	return cfg, rs
}

func TestRunInvariantsHoldPerScheme(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme energy.Scheme
		mutate func(*sim.Config)
	}{
		{"baseline", energy.Baseline, nil},
		{"waymem", energy.WayMemoization, nil},
		{"wayplace", energy.WayPlacement, nil},
		{"wayplace-oracle", energy.WayPlacement, func(c *sim.Config) { c.OracleHint = true }},
		{"wayplace-nosameline", energy.WayPlacement, func(c *sim.Config) { c.NoSameLine = true }},
		{"wayplace-lru", energy.WayPlacement, func(c *sim.Config) {
			c.ICache.Policy = cache.LRU
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				cfg, rs := runProgen(t, seed, tc.scheme, tc.mutate)
				if err := Run(cfg, rs); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestRunCatchesCorruptedStats corrupts one counter at a time and
// demands a violation: the invariants must have teeth, not just pass
// on healthy runs.
func TestRunCatchesCorruptedStats(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scheme  energy.Scheme
		corrupt func(*sim.RunStats)
		want    string
	}{
		{"lost fetch", energy.Baseline,
			func(rs *sim.RunStats) { rs.IStats.Fetches++ }, "hits+misses"},
		{"phantom hit", energy.WayPlacement,
			func(rs *sim.RunStats) { rs.IStats.Hits++ }, "hits+misses"},
		{"uncounted tag compare", energy.WayPlacement,
			func(rs *sim.RunStats) { rs.IStats.TagComparisons-- }, "tag comparisons"},
		{"fill without miss", energy.WayMemoization,
			func(rs *sim.RunStats) { rs.IStats.LineFills++ }, "line fills"},
		{"hint counter drift", energy.WayPlacement,
			func(rs *sim.RunStats) { rs.IStats.HintCorrectNon++ }, "hint counters"},
		{"WP access without hint", energy.WayPlacement,
			func(rs *sim.RunStats) { rs.IStats.WPAccesses++ }, "correct-WP hints"},
		{"dcache access drift", energy.Baseline,
			func(rs *sim.RunStats) { rs.DStats.DataReads++ }, "D$ accesses"},
		{"tlb access drift", energy.Baseline,
			func(rs *sim.RunStats) { rs.ITLBStats.Misses-- }, "I-TLB"},
		{"time ran backwards", energy.Baseline,
			func(rs *sim.RunStats) { rs.Cycles = rs.Instrs - 1 }, "cycles"},
		{"negative energy", energy.Baseline,
			func(rs *sim.RunStats) { rs.Energy.Core = -1 }, "energy component"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, rs := runProgen(t, 3, tc.scheme, nil)
			tc.corrupt(rs)
			err := Run(cfg, rs)
			if err == nil {
				t.Fatal("corrupted stats passed the invariants")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("violation %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWPBijective cross-checks the closed-form placement property by
// brute force on several geometries: any page-aligned area up to the
// cache capacity gets distinct designated (set, way) pairs, and
// over-committed areas are accepted (the shrink heuristic owns them).
func TestWPBijective(t *testing.T) {
	geoms := []cache.Config{
		{SizeBytes: 32 << 10, Ways: 32, LineBytes: 32, Policy: cache.RoundRobin},
		{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, Policy: cache.RoundRobin},
		{SizeBytes: 4 << 10, Ways: 4, LineBytes: 16, Policy: cache.RoundRobin},
		{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Policy: cache.RoundRobin},
	}
	starts := []uint32{0, textBase, 0xfff0_0000}
	for _, g := range geoms {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		capacity := uint32(g.Sets() * g.Ways * g.LineBytes)
		for _, start := range starts {
			for _, size := range []uint32{0, uint32(g.LineBytes), capacity / 2, capacity, capacity * 2} {
				if err := WPBijective(g, start, size); err != nil {
					t.Errorf("%+v start=%#x size=%d: %v", g, start, size, err)
				}
			}
		}
	}
}

func TestTLBCoherence(t *testing.T) {
	b := tlb.MustNew(tlb.Config{Entries: 8, PageBytes: 1 << 10})
	if err := b.SetWPArea(textBase, 2<<10); err != nil {
		t.Fatal(err)
	}
	// Make both area pages and one outside page resident.
	for _, addr := range []uint32{textBase, textBase + 1<<10, textBase + 4<<10} {
		b.Lookup(addr)
	}
	if err := TLBCoherence(b); err != nil {
		t.Fatalf("fresh entries reported stale: %v", err)
	}
	// The OS shrinks the area without invalidating: the second page's
	// resident bit is now stale.
	if err := b.SetWPArea(textBase, 1<<10); err != nil {
		t.Fatal(err)
	}
	err := TLBCoherence(b)
	if err == nil {
		t.Fatal("stale way-bit not detected after resize without invalidate")
	}
	if !strings.Contains(err.Error(), "stale I-TLB way-bit") {
		t.Errorf("unexpected violation text: %v", err)
	}
	// The fix: invalidate restores coherence.
	b.Invalidate()
	if err := TLBCoherence(b); err != nil {
		t.Fatalf("coherence violated after invalidate: %v", err)
	}
	if b.Stats.Invalidates != 1 {
		t.Errorf("Invalidates = %d, want 1", b.Stats.Invalidates)
	}
}

func TestRunRejectsNil(t *testing.T) {
	if err := Run(sim.Default(), nil); err == nil {
		t.Error("nil stats accepted")
	}
}

// TestVerifyCellOnRelaidBinary runs the invariants over a profile-
// guided relaid program, the combination the engine verifies in
// production grids.
func TestVerifyCellOnRelaidBinary(t *testing.T) {
	p := progen.Program(7, progen.DefaultOptions(), textBase)
	prof, _, err := sim.ProfileRun(p, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	u := progen.Unit(7, progen.DefaultOptions())
	placed, err := layout.Link(u, prof, textBase)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.MaxInstrs = 10_000_000
	cfg.Scheme = energy.WayPlacement
	cfg.WPSize = 1 << 10
	rs, err := sim.RunContext(context.Background(), placed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCell(cfg, rs); err != nil {
		t.Errorf("VerifyCell: %v", err)
	}
}
