package experiment

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wayplace/internal/api"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/layout"
)

// subsetNames is a fast, representative subset: a crypto kernel
// (large unrolled hot loop), an image kernel, a pointer-chaser and a
// tiny kernel.
var subsetNames = []string{"sha", "susan_c", "patricia", "crc"}

var (
	subsetOnce sync.Once
	subsetVal  *Suite
	subsetErr  error
)

// subsetSuite returns the subset prepared once and shared by every
// test that reads figures from it: cells one test ran are run-cache
// hits for the next, and results do not depend on what ran before.
// A test that asserts on cache provenance builds its own suite.
func subsetSuite(t *testing.T) *Suite {
	t.Helper()
	subsetOnce.Do(func() { subsetVal, subsetErr = NewSuiteOf(subsetNames) })
	if subsetErr != nil {
		t.Fatalf("NewSuiteOf: %v", subsetErr)
	}
	return subsetVal
}

func TestPrepareProducesDistinctLayouts(t *testing.T) {
	w, err := Prepare("sha")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if w.Original.Size() != w.Placed.Size() {
		t.Errorf("layouts differ in size: %d vs %d", w.Original.Size(), w.Placed.Size())
	}
	// The placed binary concentrates profiled execution at the front.
	co := layout.Coverage(w.Original, w.Profile, 2<<10)
	cp := layout.Coverage(w.Placed, w.Profile, 2<<10)
	if cp <= co {
		t.Errorf("placed 2KB coverage %.3f not above original %.3f", cp, co)
	}
	if w.ProfCoverage16K < 0.99 {
		t.Errorf("16KB coverage after placement = %.3f, want ~1", w.ProfCoverage16K)
	}
}

func TestRunMemoisation(t *testing.T) {
	// A fresh engine, so the first run below is really the first.
	s, err := NewSuiteOf(subsetNames[:1])
	if err != nil {
		t.Fatalf("NewSuiteOf: %v", err)
	}
	w := s.Workloads[0]
	ctx := context.Background()
	spec := engine.RunSpec{Workload: w.Name, ICache: XScaleICache(), Scheme: energy.Baseline}
	a, err := s.RunSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit {
		t.Error("first run reported as a cache hit")
	}
	b, err := s.RunSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Error("identical runs were not memoised")
	}
	if !b.CacheHit {
		t.Error("second run not marked as a cache hit")
	}
	// The wire schema (api.RunRequest) must resolve to the same cell
	// and hit the same cache entry.
	res, err := s.RunRequests(ctx, []api.RunRequest{{
		Workload: w.Name,
		ICache:   api.GeometryOf(XScaleICache()),
		Scheme:   api.SchemeBaseline,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Stats != a.Stats {
		t.Error("api.RunRequest path bypassed the run cache")
	}
	if !res[0].CacheHit {
		t.Error("api.RunRequest path not marked as a cache hit")
	}
}

// TestFigure4Shape asserts the headline result of the paper's initial
// evaluation on the subset: way-placement saves roughly half the
// instruction-cache energy, way-memoization clearly less, and the
// way-placement ED product sits near the paper's 0.93 average.
func TestFigure4Shape(t *testing.T) {
	s := subsetSuite(t)
	r, err := s.Figure4(context.Background())
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	avg := r.Average
	if avg.WayPlace.Energy < 0.40 || avg.WayPlace.Energy > 0.55 {
		t.Errorf("way-placement energy = %.3f, want ~0.50 (paper: almost 50%% saving)", avg.WayPlace.Energy)
	}
	if avg.WayMem.Energy < 0.60 || avg.WayMem.Energy > 0.80 {
		t.Errorf("way-memoization energy = %.3f, want ~0.68 (paper: 32%% saving)", avg.WayMem.Energy)
	}
	if avg.WayPlace.Energy >= avg.WayMem.Energy-0.10 {
		t.Errorf("way-placement (%.3f) should beat way-memoization (%.3f) decisively",
			avg.WayPlace.Energy, avg.WayMem.Energy)
	}
	if avg.WayPlace.ED < 0.90 || avg.WayPlace.ED > 0.96 {
		t.Errorf("way-placement ED = %.3f, want ~0.93", avg.WayPlace.ED)
	}
	if avg.WayPlace.ED >= 1 || avg.WayMem.ED >= 1 {
		t.Error("ED products must be below 1 at the initial configuration")
	}
	for _, row := range r.Rows {
		if row.WayPlace.Energy >= row.WayMem.Energy {
			t.Errorf("%s: way-placement (%.3f) not below way-memoization (%.3f)",
				row.Bench, row.WayPlace.Energy, row.WayMem.Energy)
		}
	}
}

// TestFigure5Shape: shrinking the way-placement area degrades energy
// monotonically (weakly) and every size still beats way-memoization —
// section 6.2's conclusion.
func TestFigure5Shape(t *testing.T) {
	s := subsetSuite(t)
	r, err := s.Figure5(context.Background())
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Energy < r.Points[i-1].Energy-1e-6 {
			t.Errorf("energy improved when the WP area shrank: %dKB %.4f -> %dKB %.4f",
				r.Points[i-1].WPSizeKB, r.Points[i-1].Energy,
				r.Points[i].WPSizeKB, r.Points[i].Energy)
		}
	}
	for _, p := range r.Points {
		if p.Energy >= r.WayMem.Energy {
			t.Errorf("WP %dKB (%.3f) does not beat way-memoization (%.3f)",
				p.WPSizeKB, p.Energy, r.WayMem.Energy)
		}
		if p.ED >= r.WayMem.ED {
			t.Errorf("WP %dKB ED (%.3f) does not beat way-memoization (%.3f)",
				p.WPSizeKB, p.ED, r.WayMem.ED)
		}
	}
}

// TestFigure6Shape checks section 6.3's qualitative findings on a
// reduced sweep: way-placement helps at every configuration; the
// saving grows with associativity; at 8 ways way-memoization
// *increases* cache energy while way-placement still reduces it.
func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache sweep in -short mode")
	}
	s := subsetSuite(t)
	cells, err := s.Figure6(context.Background())
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	byKey := make(map[[2]int]Fig6Cell)
	for _, c := range cells {
		byKey[[2]int{c.SizeKB, c.Ways}] = c
		if c.WP16.Energy >= 1 || c.WP8.Energy >= 1 {
			t.Errorf("%dKB/%d-way: way-placement failed to save energy", c.SizeKB, c.Ways)
		}
		if c.WP16.ED >= 1 {
			t.Errorf("%dKB/%d-way: way-placement ED %.3f >= 1", c.SizeKB, c.Ways, c.WP16.ED)
		}
	}
	// Savings grow with associativity at fixed size.
	for _, kb := range Fig6Sizes {
		if !(byKey[[2]int{kb, 32}].WP16.Energy < byKey[[2]int{kb, 16}].WP16.Energy &&
			byKey[[2]int{kb, 16}].WP16.Energy < byKey[[2]int{kb, 8}].WP16.Energy) {
			t.Errorf("%dKB: savings do not grow with associativity", kb)
		}
	}
	// The paper's crossover: way-memoization above 1.0 at 8 ways.
	for _, kb := range Fig6Sizes {
		c := byKey[[2]int{kb, 8}]
		if c.WayMem.Energy < 1.0 {
			t.Errorf("%dKB/8-way: way-memoization %.3f should increase cache energy (paper: it does)",
				kb, c.WayMem.Energy)
		}
		if c.WP16.Energy > 0.85 {
			t.Errorf("%dKB/8-way: way-placement %.3f, paper reports ~0.82", kb, c.WP16.Energy)
		}
	}
}

func TestAblationsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	s := subsetSuite(t)

	rows, err := s.AblationLayout(context.Background())
	if err != nil {
		t.Fatalf("AblationLayout: %v", err)
	}
	if rows[0].Energy >= rows[1].Energy {
		t.Errorf("profile-guided layout (%.3f) not better than original (%.3f) under a tight area",
			rows[0].Energy, rows[1].Energy)
	}
	if rows[0].Energy >= rows[2].Energy {
		t.Errorf("profile-guided layout (%.3f) not better than random (%.3f)",
			rows[0].Energy, rows[2].Energy)
	}

	hint, err := s.AblationHint(context.Background())
	if err != nil {
		t.Fatalf("AblationHint: %v", err)
	}
	// The 1-bit hint must be nearly free: within half a point of the
	// oracle (section 4.1: "the performance and energy overheads of
	// using this bit are negligible").
	if hint[0].Energy-hint[1].Energy > 0.005 {
		t.Errorf("way hint costs %.4f over oracle, want < 0.005",
			hint[0].Energy-hint[1].Energy)
	}

	sl, err := s.AblationSameLine(context.Background())
	if err != nil {
		t.Fatalf("AblationSameLine: %v", err)
	}
	if sl[0].Energy >= sl[1].Energy {
		t.Errorf("same-line skip does not help: on %.3f vs off %.3f", sl[0].Energy, sl[1].Energy)
	}

	repl, err := s.AblationReplacement(context.Background())
	if err != nil {
		t.Fatalf("AblationReplacement: %v", err)
	}
	if d := repl[0].Energy - repl[1].Energy; d > 0.02 || d < -0.02 {
		t.Errorf("scheme too sensitive to replacement policy: RR %.3f vs LRU %.3f",
			repl[0].Energy, repl[1].Energy)
	}
}

func TestFormatters(t *testing.T) {
	s := subsetSuite(t)
	r4, err := s.Figure4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFig4(r4)
	for _, want := range []string{"Figure 4", "average", "sha", "patricia"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig4 output missing %q", want)
		}
	}
	if !strings.Contains(Table1(XScaleICache()), "32KB, 32-way, 32B block") {
		t.Error("Table1 missing cache line")
	}
}

func TestExtensionRAMTagShape(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweep in -short mode")
	}
	s := subsetSuite(t)
	rows, err := s.ExtensionRAMTag(context.Background())
	if err != nil {
		t.Fatalf("ExtensionRAMTag: %v", err)
	}
	byKey := map[string]Pair{}
	for _, r := range rows {
		byKey[r.Style.String()+"/"+string(rune('0'+r.Ways/10))+string(rune('0'+r.Ways%10))] = r.WayPlace
		if r.WayPlace.Energy >= 1 {
			t.Errorf("%d-way %v: way-placement failed to save energy", r.Ways, r.Style)
		}
	}
	// On a RAM-tag array the scheme eliminates data reads too, so at
	// equal associativity the relative saving must be far larger than
	// on the CAM array.
	ram8, cam8 := byKey["ram-tag/08"], byKey["cam-tag/08"]
	if ram8.Energy >= cam8.Energy-0.2 {
		t.Errorf("RAM-tag 8-way (%.3f) should save far more than CAM-tag 8-way (%.3f)",
			ram8.Energy, cam8.Energy)
	}
	// More RAM ways -> more parallel reads eliminated.
	if byKey["ram-tag/08"].Energy >= byKey["ram-tag/04"].Energy {
		t.Errorf("RAM-tag relative saving should grow with ways: 8-way %.3f vs 4-way %.3f",
			byKey["ram-tag/08"].Energy, byKey["ram-tag/04"].Energy)
	}
}

func TestExtensionAdaptiveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweep in -short mode")
	}
	s := subsetSuite(t)
	rows, err := s.ExtensionAdaptive(context.Background())
	if err != nil {
		t.Fatalf("ExtensionAdaptive: %v", err)
	}
	for _, r := range rows {
		if r.Adaptive.Energy >= 1 {
			t.Errorf("%s: adaptive sizing failed to save energy (%.3f)", r.Bench, r.Adaptive.Energy)
		}
		// The adaptive OS must land within a whisker of the best
		// static area despite starting from a single page.
		if r.Adaptive.Energy > r.Static.Energy+0.03 {
			t.Errorf("%s: adaptive %.3f too far above static %.3f",
				r.Bench, r.Adaptive.Energy, r.Static.Energy)
		}
		if r.FinalSize == 0 || r.FinalSize%1024 != 0 {
			t.Errorf("%s: bad final area %d", r.Bench, r.FinalSize)
		}
	}
}

func TestCSVEmitters(t *testing.T) {
	s := subsetSuite(t)
	r4, err := s.Figure4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := CSVFig4(&buf, r4); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 4 benchmarks + average
	if len(lines) != 6 {
		t.Fatalf("fig4 csv has %d lines, want 6:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "benchmark,waymem_energy") {
		t.Errorf("bad header: %s", lines[0])
	}

	r5, err := s.Figure5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := CSVFig5(&buf, r5); err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); n != 2+len(Fig5Sizes) {
		t.Errorf("fig5 csv has %d lines", n)
	}
}

func TestExtensionProfileTransferShape(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweep in -short mode")
	}
	s := subsetSuite(t)
	rows, err := s.ExtensionProfileTransfer(context.Background())
	if err != nil {
		t.Fatalf("ExtensionProfileTransfer: %v", err)
	}
	for _, r := range rows {
		// Training on the small input must be nearly as good as the
		// (methodologically forbidden) oracle — the paper's
		// small-train/large-eval protocol depends on it.
		if gap := r.SmallProfile.Energy - r.OracleProfile.Energy; gap > 0.02 {
			t.Errorf("%s: small-input profile loses %.3f to the oracle", r.Bench, gap)
		}
	}
}

// TestOneExecutionPerWorkload runs the whole evaluation, as wpbench
// does, on the shared subset and counts program executions: exactly
// one live execution per workload, the original layout's, and one
// replay of it, relocated, per workload's placed stream. Every other
// layout (the layout ablation's binaries, profile transfer's oracle
// layout) and the large-input profile read that one recording. The
// counts do not depend on which tests ran first on the shared engine:
// each workload's first batch, whichever test submits it, holds an
// original-layout cell.
func TestOneExecutionPerWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("whole evaluation in -short mode")
	}
	s := subsetSuite(t)
	ctx := context.Background()
	if _, err := s.RunBatch(ctx, s.WarmupSpecs()); err != nil {
		t.Fatal(err)
	}
	sections := []struct {
		name string
		run  func(context.Context) error
	}{
		{"figure 4", func(ctx context.Context) error { _, err := s.Figure4(ctx); return err }},
		{"figure 5", func(ctx context.Context) error { _, err := s.Figure5(ctx); return err }},
		{"figure 6", func(ctx context.Context) error { _, err := s.Figure6(ctx); return err }},
		{"RAM-tag", func(ctx context.Context) error { _, err := s.ExtensionRAMTag(ctx); return err }},
		{"adaptive", func(ctx context.Context) error { _, err := s.ExtensionAdaptive(ctx); return err }},
		{"profile transfer", func(ctx context.Context) error { _, err := s.ExtensionProfileTransfer(ctx); return err }},
		{"code layout", func(ctx context.Context) error { _, err := s.AblationLayout(ctx); return err }},
		{"way hint", func(ctx context.Context) error { _, err := s.AblationHint(ctx); return err }},
		{"same-line", func(ctx context.Context) error { _, err := s.AblationSameLine(ctx); return err }},
		{"replacement", func(ctx context.Context) error { _, err := s.AblationReplacement(ctx); return err }},
	}
	for _, sec := range sections {
		if err := sec.run(ctx); err != nil {
			t.Fatalf("%s: %v", sec.name, err)
		}
	}
	eng := s.Engine()
	if got, want := eng.TraceMisses(), uint64(len(s.Workloads)); got != want {
		t.Errorf("%d live executions, want %d: one per workload", got, want)
	}
	// Other tests' later batches on the shared engine replay too, so
	// only the placed streams' replays are certain.
	if got, want := eng.TraceHits(), uint64(len(s.Workloads)); got < want {
		t.Errorf("%d replays, want at least %d: one per placed stream", got, want)
	}
}

// TestFigure4FullSuite is the headline regression test: the complete
// 23-benchmark reproduction of the paper's initial evaluation must
// stay at the published shape, and the figure CSVs it renders must
// equal the committed ones in results/ byte for byte. Figures 5 and 6
// are checked only outside the race detector, which would slow their
// grids past a useful test time.
func TestFigure4FullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	s, err := NewSuite()
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	if len(s.Workloads) != 23 {
		t.Fatalf("suite has %d workloads, want 23", len(s.Workloads))
	}
	r, err := s.Figure4(context.Background())
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	avg := r.Average
	// Paper: "energy savings approach 50%" for way-placement, 32% for
	// way-memoization, average ED product 0.93.
	if avg.WayPlace.Energy < 0.43 || avg.WayPlace.Energy > 0.53 {
		t.Errorf("suite WP energy = %.4f, want ~0.50", avg.WayPlace.Energy)
	}
	if avg.WayMem.Energy < 0.64 || avg.WayMem.Energy > 0.76 {
		t.Errorf("suite WM energy = %.4f, want ~0.68-0.72", avg.WayMem.Energy)
	}
	if avg.WayPlace.ED < 0.92 || avg.WayPlace.ED > 0.94 {
		t.Errorf("suite WP ED = %.4f, want ~0.93", avg.WayPlace.ED)
	}
	for _, row := range r.Rows {
		if row.WayPlace.Energy >= row.WayMem.Energy {
			t.Errorf("%s: WP (%.3f) not below WM (%.3f)",
				row.Bench, row.WayPlace.Energy, row.WayMem.Energy)
		}
		if row.WayPlace.ED >= 1 {
			t.Errorf("%s: WP ED %.3f >= 1", row.Bench, row.WayPlace.ED)
		}
	}
	sameCSV(t, "fig4.csv", func(w io.Writer) error { return CSVFig4(w, r) })
	if raceEnabled {
		return
	}
	r5, err := s.Figure5(context.Background())
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	sameCSV(t, "fig5.csv", func(w io.Writer) error { return CSVFig5(w, r5) })
	r6, err := s.Figure6(context.Background())
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	sameCSV(t, "fig6.csv", func(w io.Writer) error { return CSVFig6(w, r6) })
}

// sameCSV renders one figure's CSV and compares it with the committed
// copy in results/.
func sameCSV(t *testing.T, name string, emit func(io.Writer) error) {
	t.Helper()
	var got bytes.Buffer
	if err := emit(&got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from results/%s:\n%s", name, name, got.Bytes())
	}
}
