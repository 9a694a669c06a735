package sim

import (
	"context"
	"testing"

	"wayplace/internal/asm"
	"wayplace/internal/energy"
	"wayplace/internal/isa"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
)

// mustRun builds a configuration with New and runs prog on it.
func mustRun(t *testing.T, prog *obj.Program, opts ...Option) *RunStats {
	t.Helper()
	cfg, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunContext(context.Background(), prog, cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	return rs
}

// buildTestBench constructs a small but realistic benchmark: a table-
// driven checksum loop (hot), a setup function (cold) and an error
// path (never executed), with the cold code first so the original
// layout is pessimal.
func buildTestBench(t *testing.T, iters uint16) *obj.Unit {
	t.Helper()
	b := asm.NewBuilder("tb")
	table := b.Words(0x9e3779b9, 0x85ebca6b, 0xc2b2ae35, 0x27d4eb2f)
	buf := b.Zeros(1024)

	f := b.Func("main")
	f.Call("setup")
	f.Movi(isa.R5, iters)
	f.Movi(isa.R0, 0)
	f.Block("outer")
	f.Li(isa.R6, buf)
	f.Movi(isa.R7, 256)
	f.Block("inner")
	f.Ldr(isa.R1, isa.R6, 0)
	f.OpI(isa.ANDI, isa.R2, isa.R1, 12)
	f.Li(isa.R3, table)
	f.Ldrx(isa.R3, isa.R3, isa.R2)
	f.Op3(isa.EOR, isa.R0, isa.R0, isa.R3)
	f.Add(isa.R0, isa.R0, isa.R1)
	f.Str(isa.R0, isa.R6, 0)
	f.Addi(isa.R6, isa.R6, 4)
	f.Subi(isa.R7, isa.R7, 1)
	f.Cmpi(isa.R7, 0)
	f.Bgt("inner")
	f.Subi(isa.R5, isa.R5, 1)
	f.Cmpi(isa.R5, 0)
	f.Bgt("outer")
	f.Cmpi(isa.R0, 0)
	f.Beq("error")
	f.Halt()
	f.Block("error")
	f.Movi(isa.R0, 0xdead)
	f.Halt()

	s := b.Func("setup")
	s.Li(isa.R1, buf)
	s.Movi(isa.R2, 256)
	s.Movi(isa.R3, 1)
	s.Block("fill")
	s.Str(isa.R3, isa.R1, 0)
	s.Addi(isa.R1, isa.R1, 4)
	s.Addi(isa.R3, isa.R3, 7)
	s.Subi(isa.R2, isa.R2, 1)
	s.Cmpi(isa.R2, 0)
	s.Bgt("fill")
	s.Ret()

	u, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return u
}

const textBase = 0x0001_0000

func TestProfileThenLayoutThenRun(t *testing.T) {
	u := buildTestBench(t, 20)

	// Profile on the "small" input.
	small, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatalf("LinkOriginal: %v", err)
	}
	prof, sum, err := ProfileRun(small, 50_000_000)
	if err != nil {
		t.Fatalf("ProfileRun: %v", err)
	}
	if sum == 0xdead {
		t.Fatal("benchmark took its error path")
	}
	if prof.Count("main.inner") == 0 {
		t.Fatal("profile missed the hot loop")
	}

	// Relink with way-placement ordering.
	opt, err := layout.Link(u, prof, textBase)
	if err != nil {
		t.Fatalf("layout.Link: %v", err)
	}
	if cov := layout.Coverage(opt, prof, 1<<10); cov < 0.9 {
		t.Errorf("1KB coverage after layout = %.3f, want > 0.9", cov)
	}

	base := mustRun(t, opt)
	wp := mustRun(t, opt, WithScheme(energy.WayPlacement), WithWPSize(4<<10))
	wm := mustRun(t, opt, WithScheme(energy.WayMemoization))

	// Architectural equivalence.
	if base.Checksum != wp.Checksum || base.Checksum != wm.Checksum || base.Checksum != sum {
		t.Errorf("checksums diverge: base=%#x wp=%#x wm=%#x prof=%#x",
			base.Checksum, wp.Checksum, wm.Checksum, sum)
	}
	if base.Instrs != wp.Instrs || base.Instrs != wm.Instrs {
		t.Errorf("instruction counts diverge: %d/%d/%d", base.Instrs, wp.Instrs, wm.Instrs)
	}

	// Performance is essentially unchanged (the paper: "There is no
	// change in performance").
	ratio := float64(wp.Cycles) / float64(base.Cycles)
	if ratio > 1.01 {
		t.Errorf("way-placement slowed execution by %.2f%%", 100*(ratio-1))
	}

	// Energy ordering at the 32KB/32-way design point.
	eb, ew, em := base.Energy.ICache(), wp.Energy.ICache(), wm.Energy.ICache()
	if ew >= eb {
		t.Errorf("way-placement I$ energy %.0f not below baseline %.0f", ew, eb)
	}
	if em >= eb {
		t.Errorf("way-memoization I$ energy %.0f not below baseline %.0f", em, eb)
	}
	if ew >= em {
		t.Errorf("way-placement (%.0f) should beat way-memoization (%.0f) here", ew, em)
	}
	norm := energy.NormICache(wp.Energy, base.Energy)
	if norm > 0.65 {
		t.Errorf("normalised WP I$ energy = %.3f, want < 0.65 for a tight hot loop", norm)
	}

	// ED product below 1 for way-placement.
	ed := energy.EDProduct(wp.Energy, wp.Cycles, base.Energy, base.Cycles)
	if ed >= 1.0 {
		t.Errorf("WP ED product = %.3f, want < 1", ed)
	}
}

func TestWPAccessesTrackCoverage(t *testing.T) {
	u := buildTestBench(t, 10)
	p, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := ProfileRun(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := layout.Link(u, prof, textBase)
	if err != nil {
		t.Fatal(err)
	}
	s := mustRun(t, opt, WithScheme(energy.WayPlacement), WithWPSize(4<<10)).IStats
	if s.WPAreaFetches == 0 {
		t.Fatal("no fetches hit the WP area")
	}
	frac := float64(s.WPAreaFetches) / float64(s.Fetches)
	if frac < 0.9 {
		t.Errorf("WP-area fetch fraction = %.3f, want > 0.9 after layout", frac)
	}
	// Way-hint accuracy must be high: the stream rarely alternates.
	wrong := s.HintMissedSaving + s.HintExtraAccess
	if acc := 1 - float64(wrong)/float64(s.Fetches); acc < 0.99 {
		t.Errorf("hint accuracy = %.4f, want > 0.99", acc)
	}
}

func TestSchemesOnUnplacedBinaryStillCorrect(t *testing.T) {
	// Running the way-placement machine on a baseline-ordered binary
	// with a WP area is still correct (just less effective).
	u := buildTestBench(t, 5)
	p, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, p)
	wp := mustRun(t, p, WithScheme(energy.WayPlacement), WithWPSize(2<<10))
	if base.Checksum != wp.Checksum {
		t.Errorf("checksums diverge on unplaced binary: %#x vs %#x", base.Checksum, wp.Checksum)
	}
}

func TestZeroWPAreaEqualsBaselineEnergyShape(t *testing.T) {
	// With a zero-size WP area the way-placement engine never takes
	// the single-tag path; its tag comparisons equal the baseline's.
	u := buildTestBench(t, 5)
	p, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, p)
	wp0 := mustRun(t, p, WithScheme(energy.WayPlacement))
	if wp0.IStats.WPAccesses != 0 {
		t.Errorf("WP accesses with empty area = %d", wp0.IStats.WPAccesses)
	}
	// Identical fetch behaviour apart from the same-line skip, which a
	// zero-area way-placement engine still performs; so comparisons
	// must be <= baseline and misses equal.
	if wp0.IStats.Misses != base.IStats.Misses {
		t.Errorf("miss counts differ: %d vs %d", wp0.IStats.Misses, base.IStats.Misses)
	}
	if wp0.IStats.TagComparisons > base.IStats.TagComparisons {
		t.Errorf("empty-WP engine did more comparisons than baseline")
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := Default()
	if c.ICache.SizeBytes != 32<<10 || c.ICache.Ways != 32 || c.ICache.LineBytes != 32 {
		t.Errorf("I-cache config %+v does not match Table 1", c.ICache)
	}
	if c.ITLB.Entries != 32 || c.DTLB.Entries != 32 {
		t.Error("TLBs must be 32-entry")
	}
	if c.Mem.LatencyCycles != 50 {
		t.Error("memory latency must be 50 cycles")
	}
}

func TestRunAdaptiveConvergesAndPreservesSemantics(t *testing.T) {
	u := buildTestBench(t, 20)
	small, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := ProfileRun(small, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := layout.Link(u, prof, textBase)
	if err != nil {
		t.Fatal(err)
	}

	base := mustRun(t, opt)
	static := mustRun(t, opt, WithScheme(energy.WayPlacement), WithWPSize(16<<10))

	cfg, err := New(WithScheme(energy.WayPlacement))
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultAdaptivePolicy(cfg.ICache, cfg.ITLB.PageBytes)
	pol.IntervalInstrs = 10_000
	adaptive, changes, err := RunAdaptive(context.Background(), opt, cfg, pol)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	if adaptive.Checksum != base.Checksum {
		t.Errorf("adaptive run changed the checksum: %#x vs %#x", adaptive.Checksum, base.Checksum)
	}
	if len(changes) < 1 || changes[0].Size != uint32(cfg.ITLB.PageBytes) {
		t.Errorf("area trace should start at one page: %+v", changes)
	}
	// Sizes must be page multiples, bounded, and the trace monotone in
	// time.
	for i, ch := range changes {
		if ch.Size%uint32(cfg.ITLB.PageBytes) != 0 {
			t.Errorf("change %d: size %d not page-aligned", i, ch.Size)
		}
		if i > 0 && ch.AtInstr <= changes[i-1].AtInstr {
			t.Errorf("change %d out of order", i)
		}
	}
	// The OS should end up covering the (small) hot code and land
	// within a whisker of the best static configuration.
	aNorm := energy.NormICache(adaptive.Energy, base.Energy)
	sNorm := energy.NormICache(static.Energy, base.Energy)
	if aNorm > sNorm+0.05 {
		t.Errorf("adaptive sizing %.3f too far above static %.3f", aNorm, sNorm)
	}
	if aNorm >= 1 {
		t.Errorf("adaptive sizing failed to save energy: %.3f", aNorm)
	}
}

func TestRunAdaptiveRejectsBadPolicy(t *testing.T) {
	u := buildTestBench(t, 1)
	p, _ := layout.LinkOriginal(u, textBase)
	if _, _, err := RunAdaptive(context.Background(), p, Default(), AdaptivePolicy{}); err == nil {
		t.Error("empty policy accepted")
	}
}

func TestRAMTagStyleSavesMore(t *testing.T) {
	// On a conventional RAM-tag array the scheme also eliminates
	// parallel data-way reads, so relative savings must exceed the
	// CAM-tag organisation at equal geometry.
	u := buildTestBench(t, 10)
	small, _ := layout.LinkOriginal(u, textBase)
	prof, _, err := ProfileRun(small, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := layout.Link(u, prof, textBase)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(style energy.ArrayStyle) float64 {
		geo := Default().ICache
		geo.Ways = 8
		machine := []Option{WithICache(geo), WithDCache(geo), WithStyle(style)}
		base := mustRun(t, opt, machine...)
		wp := mustRun(t, opt, append(machine, WithScheme(energy.WayPlacement), WithWPSize(4<<10))...)
		if wp.Checksum != base.Checksum {
			t.Fatal("style changed semantics?!")
		}
		return energy.NormICache(wp.Energy, base.Energy)
	}
	cam, ram := norm(energy.CAMTag), norm(energy.RAMTag)
	if ram >= cam-0.2 {
		t.Errorf("RAM-tag saving (%.3f) should far exceed CAM-tag (%.3f) at 8 ways", ram, cam)
	}
	if ram <= 0 || ram >= 1 {
		t.Errorf("RAM-tag normalised energy out of range: %.3f", ram)
	}
}
