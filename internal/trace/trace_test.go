package trace

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/mem"
	"wayplace/internal/progen"
	"wayplace/internal/sim"
)

func TestWorkingSetAndHottest(t *testing.T) {
	addrs := []uint32{0x00, 0x04, 0x08, 0x20, 0x00, 0x04, 0x40, 0x00}
	if ws := WorkingSet(addrs, 32); ws != 3 {
		t.Errorf("WorkingSet = %d, want 3", ws)
	}
	hot := Hottest(addrs, 32, 2)
	if len(hot) != 2 || hot[0].Line != 0x00 || hot[0].Count != 6 {
		t.Errorf("Hottest = %+v", hot)
	}
	// 0x20 and 0x40 tie at one fetch each; the lower address wins.
	if hot[1].Line != 0x20 || hot[1].Count != 1 {
		t.Errorf("Hottest[1] = %+v", hot[1])
	}
}

func TestConcentration(t *testing.T) {
	// 8 fetches to line 0, 1 each to lines 1 and 2.
	var addrs []uint32
	for i := 0; i < 8; i++ {
		addrs = append(addrs, 0x00)
	}
	addrs = append(addrs, 0x20, 0x40)
	if c := Concentration(addrs, 32, 0.8); c != 1 {
		t.Errorf("80%% concentration = %d, want 1", c)
	}
	if c := Concentration(addrs, 32, 1.0); c != 3 {
		t.Errorf("100%% concentration = %d, want 3", c)
	}
}

func TestRunLengths(t *testing.T) {
	addrs := []uint32{0x00, 0x04, 0x08, 0x20, 0x24, 0x00}
	h := RunLengths(addrs, 32)
	if h[3] != 1 || h[2] != 1 || h[1] != 1 {
		t.Errorf("RunLengths = %v, want one run each of 3, 2, 1", h)
	}
	mean := MeanRunLength(addrs, 32)
	if mean < 1.99 || mean > 2.01 {
		t.Errorf("MeanRunLength = %f, want 2", mean)
	}
}

func TestRunLengthsEmpty(t *testing.T) {
	if len(RunLengths(nil, 32)) != 0 {
		t.Error("empty trace should give empty histogram")
	}
	if MeanRunLength(nil, 32) != 0 {
		t.Error("empty trace mean should be 0")
	}
	if PrefixCoverage(nil, 0, 1024) != 0 {
		t.Error("empty trace coverage should be 0")
	}
}

func TestPrefixCoverage(t *testing.T) {
	addrs := []uint32{0x1000, 0x1004, 0x2000, 0x2004}
	if c := PrefixCoverage(addrs, 0x1000, 0x1000); c != 0.5 {
		t.Errorf("PrefixCoverage = %f, want 0.5", c)
	}
	if c := PrefixCoverage(addrs, 0x1000, 0x2000); c != 1.0 {
		t.Errorf("PrefixCoverage = %f, want 1", c)
	}
}

// recorder is a fetch engine that logs every address the CPU fetches
// through it: the stream as the CPU's own fetch loop sees it.
type recorder struct {
	cache.FetchEngine
	addrs []uint32
}

func (r *recorder) Fetch(addr uint32, indirect bool) cache.FetchResult {
	r.addrs = append(r.addrs, addr)
	return r.FetchEngine.Fetch(addr, indirect)
}

// TestAddrsCapturesEveryFetch: Addrs must return exactly one address
// per executed instruction, in execution order — the addresses a CPU
// fetches through an attached fetch engine.
func TestAddrsCapturesEveryFetch(t *testing.T) {
	prog := progen.Program(7, progen.DefaultOptions(), 0x1_0000)
	cfg := sim.Default()
	cfg.MaxInstrs = 5_000_000

	got, err := Addrs(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}

	inner, err := cache.NewBaseline(cfg.ICache)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{FetchEngine: inner}
	c := cpu.New(prog, mem.New(cfg.Mem))
	c.IFetch = rec
	r, err := c.Run(cfg.MaxInstrs)
	if err != nil {
		t.Fatal(err)
	}

	if uint64(len(got)) != r.Instrs {
		t.Errorf("Addrs returned %d addresses for %d instructions", len(got), r.Instrs)
	}
	if !reflect.DeepEqual(got, rec.addrs) {
		t.Error("Addrs differs from the addresses the CPU fetched")
	}
	if len(got) == 0 || got[0] != prog.Entry {
		t.Errorf("first fetch not the entry %#x", prog.Entry)
	}
}

// Property: concentration is monotone in the fraction and bounded by
// the working set.
func TestConcentrationProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		addrs := make([]uint32, len(raw))
		for i, a := range raw {
			addrs[i] = a &^ 3 % (1 << 20)
		}
		ws := WorkingSet(addrs, 32)
		c50 := Concentration(addrs, 32, 0.5)
		c99 := Concentration(addrs, 32, 0.99)
		return c50 <= c99 && c99 <= ws && c50 >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMentionsEverything(t *testing.T) {
	addrs := []uint32{0x1000, 0x1004, 0x1008, 0x2000}
	s := Summary(addrs, 32, 0x1000)
	for _, want := range []string{"fetches", "working set", "concentration", "same-line run", "prefix covers"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestReuseDistances(t *testing.T) {
	// Lines: A B A C B A (32B lines).
	addrs := []uint32{0x00, 0x20, 0x00, 0x40, 0x20, 0x00}
	h := ReuseDistances(addrs, 32)
	// A reused at distance 1 (B touched), B at distance 2 (A, C),
	// A again at distance 2 (C, B).
	if h[1] != 1 || h[2] != 2 {
		t.Errorf("ReuseDistances = %v, want {1:1, 2:2}", h)
	}
}

func TestHitRateAtCapacity(t *testing.T) {
	// A tight two-line loop: after warmup every fetch hits with
	// capacity >= 2.
	var addrs []uint32
	for i := 0; i < 100; i++ {
		addrs = append(addrs, 0x00, 0x20)
	}
	if hr := HitRateAtCapacity(addrs, 32, 2); hr < 0.98 {
		t.Errorf("hit rate at capacity 2 = %.3f, want ~0.99", hr)
	}
	if hr := HitRateAtCapacity(addrs, 32, 1); hr > 0.01 {
		t.Errorf("hit rate at capacity 1 = %.3f, want ~0 (alternating lines)", hr)
	}
	// Monotone in capacity.
	if HitRateAtCapacity(addrs, 32, 4) < HitRateAtCapacity(addrs, 32, 2) {
		t.Error("hit rate not monotone in capacity")
	}
}
