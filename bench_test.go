// Benchmark harness: one testing.B benchmark per table and figure of
// the paper, plus the design-choice ablations from DESIGN.md and
// throughput benchmarks for the substrates.
//
// The figure benchmarks report the paper's metrics alongside timing:
//
//	normE% — normalised instruction-cache energy (figures 4a/5a/6a)
//	ED     — normalised energy-delay product x1000 (figures 4b/5b/6b)
//
// Run everything with:
//
//	go test -bench=. -benchmem
package wayplace

import (
	"context"
	"sync"
	"testing"

	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// figBench is the representative workload for the per-figure
// benchmarks (the full 23-benchmark sweep lives in cmd/wpbench; a
// testing.B iteration must stay in the tens of milliseconds).
const figBench = "crc"

var (
	suiteOnce sync.Once
	suiteVal  *experiment.Suite
	suiteErr  error
)

func suite(b *testing.B) *experiment.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = experiment.NewSuiteOf([]string{figBench})
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// runScheme executes the figure workload under one configuration and
// reports the paper's metrics.
func runScheme(b *testing.B, icfg cache.Config, scheme energy.Scheme, wp uint32) {
	b.Helper()
	s := suite(b)
	w := s.Workloads[0]
	cfg := sim.Default()
	cfg.ICache = icfg
	cfg.MaxInstrs = experiment.MaxInstrs
	cfg.Scheme = scheme
	cfg.WPSize = wp
	baseRes, err := s.RunSpec(context.Background(),
		engine.RunSpec{Workload: w.Name, ICache: icfg, Scheme: energy.Baseline})
	if err != nil {
		b.Fatal(err)
	}
	base := baseRes.Stats
	prog := w.Original
	if scheme == energy.WayPlacement {
		prog = w.Placed
	}
	var last *sim.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = sim.RunContext(context.Background(), prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*energy.NormICache(last.Energy, base.Energy), "normE%")
	b.ReportMetric(1000*energy.EDProduct(last.Energy, last.Cycles, base.Energy, base.Cycles), "ED*1000")
	b.ReportMetric(float64(last.Instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// --- Figure 1: the motivating example -----------------------------

func BenchmarkFig1TagComparisons(b *testing.B) {
	cfg := cache.Config{SizeBytes: 32, Ways: 4, LineBytes: 4}
	b.Run("baseline", func(b *testing.B) {
		e, _ := cache.NewBaseline(cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Fetch(0x04, false)
			e.Fetch(0x08, false)
			e.Fetch(0x20, false)
		}
		b.ReportMetric(float64(e.Cache().Stats.TagComparisons)/float64(b.N), "cmp/3fetch")
	})
	b.Run("wayplace", func(b *testing.B) {
		e, _ := cache.NewWayPlacement(cfg, cache.WPOracleFunc(func(uint32) bool { return true }))
		e.Fetch(0x3c, false) // warm the hint
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Fetch(0x04, false)
			e.Fetch(0x08, false)
			e.Fetch(0x20, false)
		}
	})
}

// --- Table 1 / Figure 4: the initial evaluation --------------------

func BenchmarkFig4InitialEvaluation(b *testing.B) {
	icfg := experiment.XScaleICache()
	b.Run("baseline", func(b *testing.B) { runScheme(b, icfg, energy.Baseline, 0) })
	b.Run("waymem", func(b *testing.B) { runScheme(b, icfg, energy.WayMemoization, 0) })
	b.Run("wayplace", func(b *testing.B) { runScheme(b, icfg, energy.WayPlacement, experiment.InitialWPSize) })
}

// --- Figure 5: way-placement area sweep -----------------------------

func BenchmarkFig5AreaSweep(b *testing.B) {
	icfg := experiment.XScaleICache()
	for _, kb := range experiment.Fig5Sizes {
		kb := kb
		b.Run(byteName(kb), func(b *testing.B) {
			runScheme(b, icfg, energy.WayPlacement, uint32(kb)<<10)
		})
	}
}

// --- Figure 6: cache size / associativity sweep ---------------------

func BenchmarkFig6CacheSweep(b *testing.B) {
	for _, kb := range experiment.Fig6Sizes {
		for _, ways := range experiment.Fig6Ways {
			icfg := cache.Config{SizeBytes: kb << 10, Ways: ways, LineBytes: 32}
			name := byteName(kb) + "/" + wayName(ways)
			b.Run(name+"/waymem", func(b *testing.B) { runScheme(b, icfg, energy.WayMemoization, 0) })
			b.Run(name+"/wayplace", func(b *testing.B) {
				runScheme(b, icfg, energy.WayPlacement, experiment.InitialWPSize)
			})
		}
	}
}

// --- Ablations ------------------------------------------------------

func ablationScheme(b *testing.B, mutate func(*sim.Config), placed bool) {
	b.Helper()
	s := suite(b)
	w := s.Workloads[0]
	icfg := experiment.XScaleICache()
	baseRes, err := s.RunSpec(context.Background(),
		engine.RunSpec{Workload: w.Name, ICache: icfg, Scheme: energy.Baseline})
	if err != nil {
		b.Fatal(err)
	}
	base := baseRes.Stats
	cfg := sim.Default()
	cfg.ICache = icfg
	cfg.MaxInstrs = experiment.MaxInstrs
	cfg.Scheme = energy.WayPlacement
	cfg.WPSize = 2 << 10 // scarce area: where the choices matter
	mutate(&cfg)
	prog := w.Original
	if placed {
		prog = w.Placed
	}
	var last *sim.RunStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = sim.RunContext(context.Background(), prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(100*energy.NormICache(last.Energy, base.Energy), "normE%")
}

func BenchmarkAblationLayout(b *testing.B) {
	b.Run("placed", func(b *testing.B) { ablationScheme(b, func(*sim.Config) {}, true) })
	b.Run("original", func(b *testing.B) { ablationScheme(b, func(*sim.Config) {}, false) })
}

func BenchmarkAblationHint(b *testing.B) {
	b.Run("hintbit", func(b *testing.B) { ablationScheme(b, func(*sim.Config) {}, true) })
	b.Run("oracle", func(b *testing.B) {
		ablationScheme(b, func(c *sim.Config) { c.OracleHint = true }, true)
	})
}

func BenchmarkAblationSameLine(b *testing.B) {
	b.Run("on", func(b *testing.B) { ablationScheme(b, func(*sim.Config) {}, true) })
	b.Run("off", func(b *testing.B) {
		ablationScheme(b, func(c *sim.Config) { c.NoSameLine = true }, true)
	})
}

func BenchmarkAblationReplacement(b *testing.B) {
	b.Run("roundrobin", func(b *testing.B) { ablationScheme(b, func(*sim.Config) {}, true) })
	b.Run("lru", func(b *testing.B) {
		ablationScheme(b, func(c *sim.Config) { c.ICache.Policy = cache.LRU }, true)
	})
}

// --- Substrate throughput -------------------------------------------

func BenchmarkSimulatorFunctional(b *testing.B) {
	s := suite(b)
	w := s.Workloads[0]
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		prof, _, err := sim.ProfileRun(w.Original, experiment.MaxInstrs)
		if err != nil {
			b.Fatal(err)
		}
		instrs += prof.TotalInstrs(w.Unit)
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkLayoutPass(b *testing.B) {
	s := suite(b)
	w := s.Workloads[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Link(w.Unit, w.Profile, experiment.TextBase); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSuiteProgram(b *testing.B) {
	bm, err := bench.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Build(bench.Large); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheFetchEngines(b *testing.B) {
	cfg := experiment.XScaleICache()
	addrs := make([]uint32, 4096)
	pc := uint32(0)
	seed := uint64(99)
	for i := range addrs {
		addrs[i] = pc
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		if seed%8 == 0 {
			pc = uint32(seed>>32) % (16 << 10) &^ 3
		} else {
			pc += 4
		}
	}
	b.Run("baseline", func(b *testing.B) {
		e, _ := cache.NewBaseline(cfg)
		for i := 0; i < b.N; i++ {
			e.Fetch(addrs[i%len(addrs)], false)
		}
	})
	b.Run("wayplace", func(b *testing.B) {
		e, _ := cache.NewWayPlacement(cfg, cache.WPOracleFunc(func(a uint32) bool { return a < 16<<10 }))
		for i := 0; i < b.N; i++ {
			e.Fetch(addrs[i%len(addrs)], false)
		}
	})
	b.Run("waymem", func(b *testing.B) {
		e, _ := cache.NewWayMemoization(cfg)
		for i := 0; i < b.N; i++ {
			e.Fetch(addrs[i%len(addrs)], false)
		}
	})
}

// --- Fetch-stream layers ---------------------------------------------

// streamBase is the producer-side machine of the figure runs.
func streamBase() sim.Config {
	cfg := sim.Default()
	cfg.MaxInstrs = experiment.MaxInstrs
	return cfg
}

// recordTrace records one complete pass of prog's fetch stream.
func recordTrace(tb testing.TB, prog *obj.Program) *sim.FetchTrace {
	tb.Helper()
	cfg := streamBase()
	_, tr, err := sim.RecordMulti(context.Background(), prog, cfg, []sim.ModelSpec{sim.ModelSpecOf(cfg)})
	if err != nil {
		tb.Fatal(err)
	}
	if tr == nil {
		tb.Fatal("complete pass recorded no trace")
	}
	return tr
}

// drain pulls every chunk from a stream source and returns the event
// count.
func drain(b *testing.B, src interface {
	NextChunk(context.Context) (*sim.FetchChunk, error)
}) int {
	n := 0
	for {
		ch, err := src.NextChunk(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if ch == nil {
			return n
		}
		n += len(ch.Events)
	}
}

// BenchmarkFetchSource is live fetch-stream production: the CPU, memory
// image, D-cache and D-TLB executing the figure workload.
func BenchmarkFetchSource(b *testing.B) {
	w := suite(b).Workloads[0]
	instrs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := sim.NewFetchSource(w.Original, streamBase(), 32)
		if err != nil {
			b.Fatal(err)
		}
		instrs += drain(b, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkFetchTraceReplay is the same stream replayed from its
// recording, plus the recording's compressed size.
func BenchmarkFetchTraceReplay(b *testing.B) {
	tr := recordTrace(b, suite(b).Workloads[0].Original)
	instrs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := sim.NewTraceSource(tr, 32)
		if err != nil {
			b.Fatal(err)
		}
		instrs += drain(b, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	b.ReportMetric(float64(tr.Bytes())/float64(tr.Instrs()), "bytes/instr")
}

// BenchmarkRelocatedReplay is the same stream's recording relocated
// onto the placed layout: decoding, mapping every segment to its new
// addresses, and the target layout's own runs, repeats and reference
// I-TLB, as the engine derives a placed stream.
func BenchmarkRelocatedReplay(b *testing.B) {
	w := suite(b).Workloads[0]
	tr := recordTrace(b, w.Original)
	instrs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := sim.NewRelocSource(tr, w.Placed, 32)
		if err != nil {
			b.Fatal(err)
		}
		instrs += drain(b, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkRunMultiGrid is the consume side of a paper-grid pass: the
// figure workload's recorded placed stream replayed through figure 6's
// grid (every size and associativity under baseline, way-memoization
// and both way-placement areas) in one pass, reported per instruction
// per model.
func BenchmarkRunMultiGrid(b *testing.B) {
	w := suite(b).Workloads[0]
	tr := recordTrace(b, w.Placed)
	var models []sim.ModelSpec
	for _, kb := range experiment.Fig6Sizes {
		for _, ways := range experiment.Fig6Ways {
			icfg := cache.Config{SizeBytes: kb << 10, Ways: ways, LineBytes: 32}
			models = append(models,
				sim.ModelSpec{Geometry: icfg, Scheme: energy.Baseline},
				sim.ModelSpec{Geometry: icfg, Scheme: energy.WayMemoization},
				sim.ModelSpec{Geometry: icfg, Scheme: energy.WayPlacement, WPSize: 16 << 10},
				sim.ModelSpec{Geometry: icfg, Scheme: energy.WayPlacement, WPSize: 8 << 10})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReplayMulti(context.Background(), tr, w.Placed, streamBase(), models); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(tr.Instrs())*float64(b.N*len(models))), "ns/instr/model")
}

// BenchmarkRunMultiAblations is the consume side of the paper's two
// event-sensitive experiments: the figure workload's recorded placed
// stream replayed through the same-line ablation (way-placement with
// the tag-check skip off) and the default OS-adaptive area policy, in
// one pass, reported per instruction per model.
func BenchmarkRunMultiAblations(b *testing.B) {
	w := suite(b).Workloads[0]
	tr := recordTrace(b, w.Placed)
	icfg := experiment.XScaleICache()
	pol := sim.DefaultAdaptivePolicy(icfg, streamBase().ITLB.PageBytes)
	models := []sim.ModelSpec{
		{Geometry: icfg, Scheme: energy.WayPlacement, WPSize: 2 << 10, NoSameLine: true},
		{Geometry: icfg, Adaptive: &pol},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReplayMulti(context.Background(), tr, w.Placed, streamBase(), models); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(tr.Instrs())*float64(b.N*len(models))), "ns/instr/model")
}

// BenchmarkReplayGroup is a fleet-cold-shaped replay: the figure
// workload's recorded placed stream replayed through a small group
// (an 8 KB 8-way baseline and way-placement with a 4 KB area), so
// stream decoding and analysis weigh as they do for a served cell,
// reported per instruction.
func BenchmarkReplayGroup(b *testing.B) {
	w := suite(b).Workloads[0]
	tr := recordTrace(b, w.Placed)
	icfg := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	models := []sim.ModelSpec{
		{Geometry: icfg, Scheme: energy.Baseline},
		{Geometry: icfg, Scheme: energy.WayPlacement, WPSize: 4 << 10},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReplayMulti(context.Background(), tr, w.Placed, streamBase(), models); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(tr.Instrs())*float64(b.N)), "ns/instr")
}

// TestFetchTracesFitBudget records the reference-input stream of every
// benchmark, original and placed layout — every stream the paper grid
// and the serving sweeps simulate — and requires the recordings to
// stay under 1 MiB together, so an engine can hold them all.
func TestFetchTracesFitBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("records all 46 reference streams")
	}
	total, instrs := 0, uint64(0)
	for _, name := range bench.Names() {
		w, err := experiment.Prepare(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, prog := range []*obj.Program{w.Original, w.Placed} {
			tr := recordTrace(t, prog)
			total += tr.Bytes()
			instrs += tr.Instrs()
		}
	}
	t.Logf("%d instructions in %d trace bytes (%.4f bytes/instr)", instrs, total, float64(total)/float64(instrs))
	if total >= 1<<20 {
		t.Errorf("the 46 reference traces take %d bytes, want < 1 MiB", total)
	}
}

// --- helpers ---------------------------------------------------------

func byteName(kb int) string {
	const d = "0123456789"
	if kb >= 10 {
		return string([]byte{d[kb/10], d[kb%10]}) + "KB"
	}
	return string([]byte{d[kb]}) + "KB"
}

func wayName(w int) string {
	const d = "0123456789"
	if w >= 10 {
		return string([]byte{d[w/10], d[w%10]}) + "way"
	}
	return string([]byte{d[w]}) + "way"
}
