// Engine tests cover the three properties the scheduler promises:
// determinism across worker counts, prompt cancellation, and a run
// cache that never repeats a simulation.
//
// The workloads are tiny synthetic programs built directly with the
// assembler, so the tests exercise the scheduling machinery rather
// than the benchmark suite (internal/experiment has that covered).
package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"wayplace/internal/asm"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/isa"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/obs"
	"wayplace/internal/sim"
)

const textBase = 0x0001_0000

// buildHot assembles a small program with a clear hot/cold split: cold
// handlers first in source order, then a kernel that runs iters times.
func buildHot(name string, iters uint16) *obj.Unit {
	b := asm.NewBuilder(name)
	buf := b.Zeros(256)

	f := b.Func("main")
	f.Call("setup")
	f.Movi(isa.R5, iters)
	f.Block("outer")
	f.Call("kernel")
	f.Subi(isa.R5, isa.R5, 1)
	f.Cmpi(isa.R5, 0)
	f.Bgt("outer")
	f.Halt()

	for i := 0; i < 8; i++ {
		h := b.Func(fmt.Sprintf("cold_%d", i))
		for k := 0; k < 40; k++ {
			h.Addi(isa.R9, isa.R9, 1)
		}
		h.Ret()
	}

	s := b.Func("setup")
	s.Li(isa.R1, buf)
	s.Movi(isa.R2, 64)
	s.Block("fill")
	s.Str(isa.R2, isa.R1, 0)
	s.Addi(isa.R1, isa.R1, 4)
	s.Subi(isa.R2, isa.R2, 1)
	s.Cmpi(isa.R2, 0)
	s.Bgt("fill")
	s.Ret()

	k := b.Func("kernel")
	k.Li(isa.R1, buf)
	k.Movi(isa.R2, 64)
	k.Block("loop")
	k.Ldr(isa.R3, isa.R1, 0)
	k.Add(isa.R0, isa.R0, isa.R3)
	k.Addi(isa.R1, isa.R1, 4)
	k.Subi(isa.R2, isa.R2, 1)
	k.Cmpi(isa.R2, 0)
	k.Bgt("loop")
	k.Ret()

	return b.MustBuild()
}

// buildSpin assembles a program that runs for billions of instructions
// — effectively forever at test timescales — so cancellation tests
// have something to interrupt.
func buildSpin() *obj.Unit {
	b := asm.NewBuilder("spin")
	f := b.Func("main")
	f.Movi(isa.R5, 60000)
	f.Block("outer")
	f.Movi(isa.R6, 60000)
	f.Block("inner")
	f.Addi(isa.R1, isa.R1, 1)
	f.Subi(isa.R6, isa.R6, 1)
	f.Cmpi(isa.R6, 0)
	f.Bgt("inner")
	f.Subi(isa.R5, isa.R5, 1)
	f.Cmpi(isa.R5, 0)
	f.Bgt("outer")
	f.Halt()
	return b.MustBuild()
}

var (
	workloadsOnce sync.Once
	workloads     map[string]*engine.Workload
	workloadsErr  error
)

// prepareWorkloads builds the shared test programs once: two hot/cold
// programs (profiled and relaid, so way-placement cells are real) and
// the spinner (original layout only).
func prepareWorkloads() {
	workloads = make(map[string]*engine.Workload)
	for name, iters := range map[string]uint16{"tiny1": 300, "tiny2": 170} {
		u := buildHot(name, iters)
		orig, err := layout.LinkOriginal(u, textBase)
		if err != nil {
			workloadsErr = err
			return
		}
		prof, _, err := sim.ProfileRun(orig, 50_000_000)
		if err != nil {
			workloadsErr = err
			return
		}
		placed, err := layout.Link(u, prof, textBase)
		if err != nil {
			workloadsErr = err
			return
		}
		workloads[name] = &engine.Workload{Name: name, Original: orig, Placed: placed}
	}
	spin, err := layout.LinkOriginal(buildSpin(), textBase)
	if err != nil {
		workloadsErr = err
		return
	}
	workloads["spin"] = &engine.Workload{Name: "spin", Original: spin}
}

func testProvider(t *testing.T) engine.Provider {
	t.Helper()
	workloadsOnce.Do(prepareWorkloads)
	if workloadsErr != nil {
		t.Fatalf("building test workloads: %v", workloadsErr)
	}
	return func(ctx context.Context, name string) (*engine.Workload, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w, ok := workloads[name]
		if !ok {
			return nil, fmt.Errorf("no such workload %q", name)
		}
		return w, nil
	}
}

// grid is the test evaluation grid: workloads x cache geometries x
// schemes, mirroring the shape of the paper's figures.
func grid() []engine.RunSpec {
	var specs []engine.RunSpec
	for _, w := range []string{"tiny1", "tiny2"} {
		for _, icfg := range []cache.Config{
			{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32},
			{SizeBytes: 16 << 10, Ways: 16, LineBytes: 32},
		} {
			specs = append(specs,
				engine.RunSpec{Workload: w, ICache: icfg, Scheme: energy.Baseline},
				engine.RunSpec{Workload: w, ICache: icfg, Scheme: energy.WayMemoization},
				engine.RunSpec{Workload: w, ICache: icfg, Scheme: energy.WayPlacement, WPSize: 2 << 10},
			)
		}
	}
	return specs
}

// TestDeterministicAcrossWorkerCounts is the acceptance property: a
// grid run with one worker and with eight must produce identical
// statistics in identical order.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	provider := testProvider(t)
	specs := grid()

	run := func(workers int) []*engine.Result {
		t.Helper()
		e := engine.New(provider, engine.WithWorkers(workers))
		res, err := e.Run(context.Background(), specs)
		if err != nil {
			t.Fatalf("Run with %d workers: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)

	for i := range specs {
		if serial[i].Spec != specs[i] {
			t.Fatalf("result %d out of order: got %v want %v", i, serial[i].Spec, specs[i])
		}
		if !reflect.DeepEqual(serial[i].Stats, parallel[i].Stats) {
			t.Errorf("%v: stats differ between 1 and 8 workers", specs[i])
		}
	}
}

func TestRunCache(t *testing.T) {
	e := engine.New(testProvider(t), engine.WithWorkers(4))
	ctx := context.Background()
	icfg := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	spec := engine.RunSpec{Workload: "tiny1", ICache: icfg, Scheme: energy.Baseline}

	a, err := e.RunOne(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit {
		t.Error("first run reported as a cache hit")
	}
	if e.Misses() != 1 || e.Hits() != 0 {
		t.Errorf("after first run: hits=%d misses=%d, want 0/1", e.Hits(), e.Misses())
	}

	b, err := e.RunOne(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Error("repeated run not served from the cache")
	}
	if b.Stats != a.Stats {
		t.Error("cache returned a different stats object")
	}
	if e.Misses() != 1 {
		t.Errorf("repeated spec re-simulated: misses=%d, want 1", e.Misses())
	}
	if b.Wall != 0 {
		t.Errorf("cache hit reports wall time %v, want 0", b.Wall)
	}

	// A batch containing duplicates simulates each distinct cell once
	// and marks the duplicates as hits.
	other := engine.RunSpec{Workload: "tiny2", ICache: icfg, Scheme: energy.Baseline}
	res, err := e.Run(ctx, []engine.RunSpec{spec, other, spec, other})
	if err != nil {
		t.Fatal(err)
	}
	if e.Misses() != 2 {
		t.Errorf("batch with duplicates: misses=%d, want 2", e.Misses())
	}
	if !res[0].CacheHit || !res[2].CacheHit || !res[3].CacheHit {
		t.Error("duplicate occurrences not marked as cache hits")
	}
	if res[2].Stats != res[0].Stats || res[3].Stats != res[1].Stats {
		t.Error("duplicate occurrences do not share the memoised stats")
	}
}

// TestRunCacheKeyedByBaseConfig: the same spec against two different
// machine templates must be two cache entries, not one.
func TestRunCacheKeyedByBaseConfig(t *testing.T) {
	e := engine.New(testProvider(t))
	ctx := context.Background()
	spec := engine.RunSpec{
		Workload: "tiny1",
		ICache:   cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32},
		Scheme:   energy.Baseline,
	}
	ram := sim.Default()
	ram.Style = energy.RAMTag

	a, err := e.RunOne(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RunOne(ctx, spec, engine.WithBaseConfig(ram))
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheHit {
		t.Error("different base config aliased onto the cached run")
	}
	if a.Stats.Energy == b.Stats.Energy {
		t.Error("CAM and RAM runs returned identical energy — base config ignored")
	}
}

func TestProgressCallback(t *testing.T) {
	specs := grid()
	var mu sync.Mutex
	var seen []engine.Progress
	e := engine.New(testProvider(t), engine.WithWorkers(8),
		engine.WithProgress(func(p engine.Progress) {
			mu.Lock()
			seen = append(seen, p)
			mu.Unlock()
		}))
	if _, err := e.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(specs) {
		t.Fatalf("progress reported %d cells, want %d", len(seen), len(specs))
	}
	for i, p := range seen {
		if p.Done != i+1 || p.Total != len(specs) {
			t.Errorf("progress %d: done=%d total=%d", i, p.Done, p.Total)
		}
	}
}

func TestCancellationPreCancelled(t *testing.T) {
	e := engine.New(testProvider(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Run(ctx, grid())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}
}

// TestCancellationMidRun cancels while the spinner is deep in its
// instruction loop; the engine must return promptly (the loop checks
// the context every 50k instructions) with context.Canceled.
func TestCancellationMidRun(t *testing.T) {
	e := engine.New(testProvider(t), engine.WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	spec := engine.RunSpec{
		Workload: "spin",
		ICache:   cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32},
		Scheme:   energy.Baseline,
	}
	errc := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, []engine.RunSpec{spec})
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not return within 10s of cancellation")
	}

	// The failed cell must not be cached: a fresh context re-runs it.
	if e.Hits() != 0 {
		t.Errorf("cancelled cell produced a cache hit (hits=%d)", e.Hits())
	}
}

// TestPerCellFailures: a bad cell must not abort the grid — good cells
// still complete and the failure arrives as a CellError inside a
// MultiError.
func TestPerCellFailures(t *testing.T) {
	e := engine.New(testProvider(t), engine.WithWorkers(4))
	icfg := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	good := engine.RunSpec{Workload: "tiny1", ICache: icfg, Scheme: energy.Baseline}
	bad := engine.RunSpec{Workload: "missing", ICache: icfg, Scheme: energy.Baseline}

	res, err := e.Run(context.Background(), []engine.RunSpec{good, bad})
	if err == nil {
		t.Fatal("grid with a bad cell returned nil error")
	}
	var merr *engine.MultiError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *engine.MultiError", err)
	}
	var cerr *engine.CellError
	if !errors.As(err, &cerr) || cerr.Spec != bad {
		t.Fatalf("MultiError does not carry the failing cell: %v", err)
	}
	if res[0] == nil || res[0].Stats == nil {
		t.Error("good cell was aborted by the bad one")
	}
	if res[1] != nil {
		t.Error("failed cell produced a result")
	}
}

func TestPrepare(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	base := testProvider(t)
	counting := func(ctx context.Context, name string) (*engine.Workload, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return base(ctx, name)
	}
	e := engine.New(counting, engine.WithWorkers(4))
	ctx := context.Background()
	if err := e.Prepare(ctx, []string{"tiny1", "tiny2"}); err != nil {
		t.Fatal(err)
	}
	// Cells reuse the prepared workloads: the provider is not called again.
	if _, err := e.Run(ctx, grid()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := calls
	mu.Unlock()
	if n != 2 {
		t.Errorf("provider called %d times, want 2 (once per workload)", n)
	}

	if err := e.Prepare(ctx, []string{"missing"}); err == nil {
		t.Fatal("Prepare of unknown workload returned nil error")
	}
}

// TestProgressReportsFailedCells is the regression test for the
// -progress stall: a grid containing a failing cell must still drive
// Done all the way to Total, with the failure visible as a non-nil
// Progress.Err. Before the fix, only successful cells reported, so
// the display hung short of Total whenever any cell failed.
func TestProgressReportsFailedCells(t *testing.T) {
	icfg := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	specs := []engine.RunSpec{
		{Workload: "tiny1", ICache: icfg, Scheme: energy.Baseline},
		{Workload: "missing", ICache: icfg, Scheme: energy.Baseline},
		{Workload: "tiny2", ICache: icfg, Scheme: energy.Baseline},
	}
	var mu sync.Mutex
	var seen []engine.Progress
	e := engine.New(testProvider(t), engine.WithWorkers(2),
		engine.WithProgress(func(p engine.Progress) {
			mu.Lock()
			seen = append(seen, p)
			mu.Unlock()
		}))
	_, err := e.Run(context.Background(), specs)
	if err == nil {
		t.Fatal("grid with a bad cell returned nil error")
	}

	if len(seen) != len(specs) {
		t.Fatalf("progress reported %d cells, want %d (failed cells must report too)", len(seen), len(specs))
	}
	last := seen[len(seen)-1]
	if last.Done != last.Total || last.Total != len(specs) {
		t.Errorf("final progress done=%d total=%d, want %d/%d", last.Done, last.Total, len(specs), len(specs))
	}
	failed := 0
	for _, p := range seen {
		if p.Err != nil {
			failed++
			if p.Spec.Workload != "missing" {
				t.Errorf("unexpected failing cell %v: %v", p.Spec, p.Err)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d progress reports carry an error, want 1", failed)
	}
}

// TestProgressReportsVerifyFailures: cells rejected by the verifier
// must also advance the progress counter.
func TestProgressReportsVerifyFailures(t *testing.T) {
	icfg := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	specs := []engine.RunSpec{
		{Workload: "tiny1", ICache: icfg, Scheme: energy.Baseline},
		{Workload: "tiny2", ICache: icfg, Scheme: energy.Baseline},
	}
	rejected := errors.New("synthetic invariant violation")
	var mu sync.Mutex
	var seen []engine.Progress
	e := engine.New(testProvider(t),
		engine.WithVerify(func(cfg sim.Config, st *sim.RunStats) error { return rejected }),
		engine.WithProgress(func(p engine.Progress) {
			mu.Lock()
			seen = append(seen, p)
			mu.Unlock()
		}))
	_, err := e.Run(context.Background(), specs)
	if err == nil {
		t.Fatal("verify-rejected grid returned nil error")
	}
	if len(seen) != len(specs) {
		t.Fatalf("progress reported %d cells, want %d", len(seen), len(specs))
	}
	for _, p := range seen {
		if p.Err == nil {
			t.Errorf("%v: verify failure not reflected in Progress.Err", p.Spec)
		}
	}
}

// TestObserverInstrumentation: with a registry installed, the engine
// must account cells, cache hits/misses, instructions, per-scheme
// energy and latency spans — and the instrumented results must be
// identical to an uninstrumented run.
func TestObserverInstrumentation(t *testing.T) {
	specs := grid()
	reg := obs.NewRegistry()
	provider := testProvider(t)
	plain := engine.New(provider, engine.WithWorkers(4))
	observed := engine.New(provider, engine.WithWorkers(4), engine.WithObserver(reg))

	want, err := plain.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := observed.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !reflect.DeepEqual(want[i].Stats, got[i].Stats) {
			t.Errorf("%v: instrumented run perturbed the statistics", specs[i])
		}
	}

	if n := reg.Counter(engine.MetricCells).Value(); n != uint64(len(specs)) {
		t.Errorf("%s = %d, want %d", engine.MetricCells, n, len(specs))
	}
	if n := reg.Counter(engine.MetricCacheMisses).Value(); n != observed.Misses() {
		t.Errorf("%s = %d, want %d", engine.MetricCacheMisses, n, observed.Misses())
	}
	if n := reg.Counter(engine.MetricInstructions).Value(); n == 0 {
		t.Errorf("%s not recorded", engine.MetricInstructions)
	}
	if h := reg.Histogram(engine.MetricCellNS); h.Count() != observed.Misses() {
		t.Errorf("%s recorded %d spans, want %d", engine.MetricCellNS, h.Count(), observed.Misses())
	}
	for _, scheme := range []energy.Scheme{energy.Baseline, energy.WayMemoization, energy.WayPlacement} {
		if v := reg.Gauge(engine.MetricEnergyPrefix + scheme.String()).Value(); v <= 0 {
			t.Errorf("energy total for %v = %v, want > 0", scheme, v)
		}
	}

	// A second, identical batch is all cache hits.
	if _, err := observed.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(engine.MetricCacheHits).Value(); n != observed.Hits() {
		t.Errorf("%s = %d, want %d", engine.MetricCacheHits, n, observed.Hits())
	}
	if n := reg.Counter(engine.MetricCacheMisses).Value(); n != observed.Misses() {
		t.Errorf("after cached batch: %s = %d, want %d (no re-simulation)", engine.MetricCacheMisses, n, observed.Misses())
	}
	if v := reg.Gauge(engine.MetricInflight).Value(); v != 0 {
		t.Errorf("in-flight gauge did not return to 0: %v", v)
	}
}

// TestObserverPrepareSpan: workload preparation must record one span
// per workload, failures excluded.
func TestObserverPrepareSpan(t *testing.T) {
	reg := obs.NewRegistry()
	e := engine.New(testProvider(t), engine.WithObserver(reg), engine.WithWorkers(2))
	if err := e.Prepare(context.Background(), []string{"tiny1", "tiny2"}); err != nil {
		t.Fatal(err)
	}
	if e.Prepare(context.Background(), []string{"missing"}) == nil {
		t.Fatal("Prepare of unknown workload returned nil error")
	}
	if h := reg.Histogram(engine.MetricPrepareNS); h.Count() != 2 {
		t.Errorf("%s recorded %d spans, want 2 (failed prepare must not count)", engine.MetricPrepareNS, h.Count())
	}
}

// TestAdaptiveCells: an adaptive-OS cell is a first-class grid member:
// it runs the relaid binary under the adaptive policy, returns the
// resize trace, matches a direct call of the coupled reference
// (sim.RunAdaptive), and is memoised like
// any other cell — distinct from the static cell at the policy's
// start size.
func TestAdaptiveCells(t *testing.T) {
	provider := testProvider(t)
	e := engine.New(provider, engine.WithWorkers(2))
	ctx := context.Background()
	icfg := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	pol := sim.DefaultAdaptivePolicy(icfg, 1<<10)
	pol.IntervalInstrs = 10_000
	adaptive := engine.RunSpec{
		Workload: "tiny1", ICache: icfg, Scheme: energy.WayPlacement,
		Adaptive: engine.AdaptiveSpecOf(pol),
	}
	static := engine.RunSpec{
		Workload: "tiny1", ICache: icfg, Scheme: energy.WayPlacement, WPSize: pol.StartSize,
	}

	res, err := e.Run(ctx, []engine.RunSpec{adaptive, static, adaptive})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].AreaChanges) == 0 || res[0].AreaChanges[0].Size != pol.StartSize {
		t.Fatalf("adaptive cell missing its resize trace: %+v", res[0].AreaChanges)
	}
	if res[1].AreaChanges != nil {
		t.Error("static cell carries a resize trace")
	}
	if res[1].Stats == res[0].Stats {
		t.Error("adaptive cell aliased onto the static start-size cell")
	}
	if !res[2].CacheHit || res[2].Stats != res[0].Stats {
		t.Error("duplicate adaptive cell not served from the cache")
	}
	if len(res[2].AreaChanges) != len(res[0].AreaChanges) {
		t.Error("cache hit lost the resize trace")
	}

	// The engine cell must be the same simulation as a direct call.
	w, err := provider(ctx, "tiny1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.ICache = icfg
	direct, changes, err := sim.RunAdaptive(ctx, w.Placed, cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, res[0].Stats) {
		t.Error("engine adaptive cell differs from direct sim.RunAdaptive")
	}
	if !reflect.DeepEqual(changes, res[0].AreaChanges) {
		t.Error("engine adaptive trace differs from direct sim.RunAdaptive")
	}
}

// TestCoalescedMatchesPerCell: grouping is a scheduling optimisation,
// not a model change — a grid run coalesced must produce, cell for
// cell, the statistics of running each cell alone through the coupled
// oracle (check.Coupled), and every fresh cell carries its group id.
func TestCoalescedMatchesPerCell(t *testing.T) {
	specs := grid()
	co := engine.New(testProvider(t), engine.WithWorkers(4))
	coRes, err := co.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, coRes, reference(t, sim.Default(), specs))
	for i := range specs {
		if coRes[i].GroupID != specs[i].Stream() {
			t.Errorf("%v: group id %q, want %q", specs[i], coRes[i].GroupID, specs[i].Stream())
		}
	}
	// grid() is 2 workloads x (2 geometries x {baseline, waymem}) on
	// the original binary + (2 geometries x wayplace) on the placed
	// binary: 4 fetch streams, 12 cells, all coalesced.
	if co.Groups() != 4 {
		t.Errorf("Groups() = %d, want 4", co.Groups())
	}
	if co.CoalescedCells() != uint64(len(specs)) {
		t.Errorf("CoalescedCells() = %d, want %d", co.CoalescedCells(), len(specs))
	}
}

// TestStreamIsGroupID: RunSpec.Stream is the one definition of a
// fetch stream. It splits cells by binary — baseline and
// way-memoization fetch the original layout, static and adaptive
// way-placement the relaid one — and it is exactly the GroupID the
// engine stamps on every coalesced cell, so the fleet can route on it
// while the wire's group ids stay byte-for-byte what they were.
func TestStreamIsGroupID(t *testing.T) {
	icfg := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	pol := sim.DefaultAdaptivePolicy(icfg, 1<<10)
	pol.IntervalInstrs = 10_000
	specs := append(grid(), engine.RunSpec{
		Workload: "tiny2", ICache: icfg, Scheme: energy.WayPlacement,
		Adaptive: engine.AdaptiveSpecOf(pol),
	})
	for _, c := range []struct {
		spec engine.RunSpec
		want string
	}{
		{specs[0], "tiny1/original"},          // baseline
		{specs[1], "tiny1/original"},          // way-memoization
		{specs[2], "tiny1/placed"},            // way-placement
		{specs[len(specs)-1], "tiny2/placed"}, // adaptive
	} {
		if got := c.spec.Stream(); got != c.want {
			t.Errorf("%v: Stream() = %q, want %q", c.spec, got, c.want)
		}
	}

	e := engine.New(testProvider(t), engine.WithWorkers(2))
	res, err := e.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	streams := make(map[string]bool)
	for i, r := range res {
		if r.GroupID != specs[i].Stream() {
			t.Errorf("%v: GroupID %q, Stream() %q", specs[i], r.GroupID, specs[i].Stream())
		}
		streams[specs[i].Stream()] = true
	}
	if got := e.Groups(); got != uint64(len(streams)) {
		t.Errorf("Groups() = %d, want one per distinct stream (%d)", got, len(streams))
	}
}

// TestCoalescedGroupWithMemoizedCells is the regression test for
// cache hits inside a coalesced group: when half a group's cells are
// already memoized from an earlier batch, the second batch must still
// (a) count each memoized cell as a cache hit in both the engine
// counters and the obs registry, (b) fire the progress callback for
// every cell so Done reaches Total, and (c) only simulate the fresh
// half.
func TestCoalescedGroupWithMemoizedCells(t *testing.T) {
	specs := grid()
	half := specs[:len(specs)/2]
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var seen []engine.Progress
	e := engine.New(testProvider(t), engine.WithWorkers(4), engine.WithObserver(reg),
		engine.WithProgress(func(p engine.Progress) {
			mu.Lock()
			seen = append(seen, p)
			mu.Unlock()
		}))
	ctx := context.Background()

	firstRes, err := e.Run(ctx, half)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterHalf := e.Misses()
	if missesAfterHalf != uint64(len(half)) {
		t.Fatalf("first batch: misses=%d, want %d", missesAfterHalf, len(half))
	}
	seen = nil

	res, err := e.Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}

	// (c) Only the fresh half simulated; the memoized half are hits.
	if e.Misses() != uint64(len(specs)) {
		t.Errorf("after full grid: misses=%d, want %d (memoized cells re-simulated)", e.Misses(), len(specs))
	}
	if e.Hits() != uint64(len(half)) {
		t.Errorf("after full grid: hits=%d, want %d", e.Hits(), len(half))
	}
	// (a) The obs counters agree with the engine counters.
	if n := reg.Counter(engine.MetricCacheHits).Value(); n != e.Hits() {
		t.Errorf("%s = %d, want %d", engine.MetricCacheHits, n, e.Hits())
	}
	if n := reg.Counter(engine.MetricCacheMisses).Value(); n != e.Misses() {
		t.Errorf("%s = %d, want %d", engine.MetricCacheMisses, n, e.Misses())
	}
	// (b) Every cell of the second batch reported progress, hits
	// included, and the counter ran all the way to Total.
	if len(seen) != len(specs) {
		t.Fatalf("progress reported %d cells, want %d", len(seen), len(specs))
	}
	last := seen[len(seen)-1]
	if last.Done != last.Total || last.Total != len(specs) {
		t.Errorf("final progress done=%d total=%d, want %d/%d", last.Done, last.Total, len(specs), len(specs))
	}
	hitReports := 0
	for _, p := range seen {
		if p.CacheHit {
			hitReports++
		}
	}
	if hitReports != len(half) {
		t.Errorf("%d progress reports marked as cache hits, want %d", hitReports, len(half))
	}
	// Memoized cells share the first batch's stats objects.
	for i := range half {
		if res[i].Stats != firstRes[i].Stats {
			t.Errorf("%v: memoized cell returned a different stats object", specs[i])
		}
		if !res[i].CacheHit {
			t.Errorf("%v: memoized cell not marked as a cache hit", specs[i])
		}
	}
}
