package engine_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wayplace/internal/asm"
	"wayplace/internal/cache"
	"wayplace/internal/check"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/isa"
	"wayplace/internal/layout"
	"wayplace/internal/obs"
	"wayplace/internal/sim"
)

var (
	geo8  = cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	geo16 = cache.Config{SizeBytes: 16 << 10, Ways: 16, LineBytes: 32}
)

// traceProvider is testProvider plus "fault", a program that performs
// a misaligned load after a short loop, and "mismatch", whose placed
// binary is another unit's (tiny2's) rather than a layout of its own.
func traceProvider(t *testing.T) engine.Provider {
	t.Helper()
	b := asm.NewBuilder("fault")
	f := b.Func("main")
	f.Movi(isa.R5, 100)
	f.Block("loop")
	f.Subi(isa.R5, isa.R5, 1)
	f.Cmpi(isa.R5, 0)
	f.Bgt("loop")
	f.Movi(isa.R1, 3)
	f.Ldr(isa.R2, isa.R1, 0)
	f.Halt()
	fault, err := layout.LinkOriginal(b.MustBuild(), textBase)
	if err != nil {
		t.Fatal(err)
	}
	base := testProvider(t)
	return func(ctx context.Context, name string) (*engine.Workload, error) {
		switch name {
		case "fault":
			return &engine.Workload{Name: name, Original: fault}, nil
		case "mismatch":
			tiny1, err := base(ctx, "tiny1")
			if err != nil {
				return nil, err
			}
			tiny2, err := base(ctx, "tiny2")
			if err != nil {
				return nil, err
			}
			return &engine.Workload{Name: name, Original: tiny1.Original, Placed: tiny2.Placed}, nil
		}
		return base(ctx, name)
	}
}

// reference computes specs on the engine base configuration base
// through the coupled oracle (check.Coupled), which shares nothing
// with the engine's grouped, recorded and replayed passes past spec
// resolution.
func reference(t *testing.T, base sim.Config, specs []engine.RunSpec) []*engine.Result {
	t.Helper()
	provider := traceProvider(t)
	out := make([]*engine.Result, len(specs))
	for i, spec := range specs {
		w, err := provider(context.Background(), spec.Workload)
		if err != nil {
			t.Fatal(err)
		}
		stats, changes, err := check.Coupled(context.Background(), w, base, spec)
		if err != nil {
			t.Fatalf("%v: coupled reference: %v", spec, err)
		}
		out[i] = &engine.Result{Spec: spec, Stats: stats, AreaChanges: changes}
	}
	return out
}

func sameStats(t *testing.T, got, want []*engine.Result) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) || !reflect.DeepEqual(got[i].AreaChanges, want[i].AreaChanges) {
			t.Errorf("%v: engine result differs from the coupled reference", want[i].Spec)
		}
	}
}

// A later batch on a stream the engine already executed replays its
// trace: the cells still count as simulated (Misses), they form the
// same group, and their results match live execution exactly.
func TestTraceReplayOnLaterBatch(t *testing.T) {
	reg := obs.NewRegistry()
	e := engine.New(traceProvider(t), engine.WithObserver(reg))
	ctx := context.Background()
	first := []engine.RunSpec{{Workload: "tiny1", ICache: geo8, Scheme: energy.Baseline}}
	if _, err := e.Run(ctx, first); err != nil {
		t.Fatal(err)
	}
	if e.TraceHits() != 0 || e.Misses() != 1 {
		t.Fatalf("first batch: trace hits %d, misses %d; want 0, 1", e.TraceHits(), e.Misses())
	}

	adaptive := sim.DefaultAdaptivePolicy(geo8, 1<<10)
	adaptive.IntervalInstrs = 10_000
	later := []engine.RunSpec{
		{Workload: "tiny1", ICache: geo8, Scheme: energy.WayMemoization},
		{Workload: "tiny1", ICache: geo16, Scheme: energy.Baseline},
		{Workload: "tiny1", ICache: geo8, Scheme: energy.WayPlacement, WPSize: 2 << 10},
		{Workload: "tiny1", ICache: geo8, Scheme: energy.WayPlacement, Adaptive: engine.AdaptiveSpecOf(adaptive)},
	}
	got, err := e.Run(ctx, later)
	if err != nil {
		t.Fatal(err)
	}
	// Both groups replay the workload's recording, the placed one
	// relocated: the workload's program ran once, in the first batch.
	if e.TraceHits() != 2 || e.TraceMisses() != 1 {
		t.Errorf("trace hits %d, live executions %d; want 2, 1", e.TraceHits(), e.TraceMisses())
	}
	if e.Misses() != 5 || e.Hits() != 0 {
		t.Errorf("misses %d, hits %d; want 5, 0", e.Misses(), e.Hits())
	}
	if e.Groups() != 2 || e.CoalescedCells() != 4 {
		t.Errorf("groups %d, coalesced %d; want 2, 4", e.Groups(), e.CoalescedCells())
	}
	for _, r := range got {
		if r.CacheHit || r.Wall <= 0 || r.GroupID == "" {
			t.Errorf("%v: hit %v, wall %v, group %q; a replayed cell is a simulated cell", r.Spec, r.CacheHit, r.Wall, r.GroupID)
		}
	}
	sameStats(t, got, reference(t, sim.Default(), later))

	if n := reg.Counter(engine.MetricTraceHits).Value(); n != 2 {
		t.Errorf("%s = %d, want 2", engine.MetricTraceHits, n)
	}
	if n := reg.Counter(engine.MetricTraceMisses).Value(); n != 1 {
		t.Errorf("%s = %d, want 1", engine.MetricTraceMisses, n)
	}
	if v := reg.Gauge(engine.MetricTraceBytes).Value(); v <= 0 {
		t.Errorf("%s = %v, want > 0", engine.MetricTraceBytes, v)
	}
	if n := reg.Histogram(engine.MetricCellNS).Count(); n != e.Misses() {
		t.Errorf("%s recorded %d cells, want %d", engine.MetricCellNS, n, e.Misses())
	}
}

// A batch with both streams of a workload executes the program once:
// the workload's groups run in first-appearance order, so the placed
// group, first here, records the workload and the original group
// replays that recording relocated onto the original binary. Later
// batches of either layout replay it too. Results match the coupled
// oracle throughout.
func TestPlacedStreamRelocatesOriginal(t *testing.T) {
	reg := obs.NewRegistry()
	e := engine.New(traceProvider(t), engine.WithObserver(reg), engine.WithWorkers(4))
	ctx := context.Background()
	wp := engine.RunSpec{Workload: "tiny2", ICache: geo8, Scheme: energy.WayPlacement, WPSize: 2 << 10}
	batch := []engine.RunSpec{wp, {Workload: "tiny2", ICache: geo8, Scheme: energy.Baseline}}
	got, err := e.Run(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, got, reference(t, sim.Default(), batch))
	if e.TraceMisses() != 1 || e.TraceHits() != 1 {
		t.Errorf("live executions %d, trace hits %d; want 1, 1", e.TraceMisses(), e.TraceHits())
	}
	if got[0].GroupID != "tiny2/placed" || got[1].GroupID != "tiny2/original" {
		t.Errorf("cells ran in groups %q and %q", got[0].GroupID, got[1].GroupID)
	}

	later := []engine.RunSpec{
		{Workload: "tiny2", ICache: geo16, Scheme: energy.WayPlacement, WPSize: 4 << 10},
		{Workload: "tiny2", ICache: geo16, Scheme: energy.WayMemoization},
	}
	got, err = e.Run(ctx, later)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, got, reference(t, sim.Default(), later))
	if e.TraceMisses() != 1 || e.TraceHits() != 3 {
		t.Errorf("later batch: live executions %d, trace hits %d; want 1, 3", e.TraceMisses(), e.TraceHits())
	}
	if n := reg.Counter(engine.MetricTraceHits).Value(); n != 3 {
		t.Errorf("%s = %d, want 3", engine.MetricTraceHits, n)
	}
}

// Whichever layout's batch reaches the engine first is the workload's
// one execution: a placed-only batch followed by an original-only
// batch, and the reverse, each execute the program once, and the
// second batch replays the first one's recording relocated. Results
// match the coupled oracle either way.
func TestOneExecutionEitherArrivalOrder(t *testing.T) {
	placed := []engine.RunSpec{
		{Workload: "tiny1", ICache: geo8, Scheme: energy.WayPlacement, WPSize: 2 << 10},
		{Workload: "tiny1", ICache: geo16, Scheme: energy.WayPlacement, WPSize: 4 << 10},
	}
	original := []engine.RunSpec{
		{Workload: "tiny1", ICache: geo8, Scheme: energy.Baseline},
		{Workload: "tiny1", ICache: geo16, Scheme: energy.WayMemoization},
	}
	for _, tc := range []struct {
		name          string
		first, second []engine.RunSpec
	}{
		{"placed first", placed, original},
		{"original first", original, placed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.New(traceProvider(t))
			ctx := context.Background()
			for i, batch := range [][]engine.RunSpec{tc.first, tc.second} {
				got, err := e.Run(ctx, batch)
				if err != nil {
					t.Fatal(err)
				}
				sameStats(t, got, reference(t, sim.Default(), batch))
				if e.TraceMisses() != 1 || e.TraceHits() != uint64(i) {
					t.Errorf("batch %d: live executions %d, trace hits %d; want 1, %d", i, e.TraceMisses(), e.TraceHits(), i)
				}
			}
		})
	}
}

// A placed stream with no recording of its workload, here the only
// stream of its batch, executes live.
func TestPlacedStreamAloneExecutes(t *testing.T) {
	e := engine.New(traceProvider(t))
	spec := []engine.RunSpec{{Workload: "tiny1", ICache: geo8, Scheme: energy.WayPlacement, WPSize: 2 << 10}}
	got, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, got, reference(t, sim.Default(), spec))
	if e.TraceMisses() != 1 || e.TraceHits() != 0 {
		t.Errorf("live executions %d, trace hits %d; want 1, 0", e.TraceMisses(), e.TraceHits())
	}
}

// A binary that is not a layout of the recorded one's unit fails its
// group with the relocation's refusal, whichever layout recorded the
// workload; the engine does not fall back to executing it, and the
// recording group's cell is unaffected.
func TestRelocationRefusalFailsGroup(t *testing.T) {
	baseline := engine.RunSpec{Workload: "mismatch", ICache: geo8, Scheme: energy.Baseline}
	wp := engine.RunSpec{Workload: "mismatch", ICache: geo8, Scheme: energy.WayPlacement, WPSize: 2 << 10}
	for _, batch := range [][]engine.RunSpec{{baseline, wp}, {wp, baseline}} {
		e := engine.New(traceProvider(t), engine.WithWorkers(1))
		got, err := e.Run(context.Background(), batch)
		var merr *engine.MultiError
		if !errors.As(err, &merr) || len(merr.Errors) != 1 || !strings.Contains(merr.Error(), "different units") {
			t.Fatalf("%v first: err %v, want the second cell's relocation refusal", batch[0].Scheme, err)
		}
		if got[0] == nil || got[1] != nil {
			t.Errorf("%v first: results %v, want the first cell only", batch[0].Scheme, got)
		}
		if e.TraceMisses() != 1 || e.TraceHits() != 1 {
			t.Errorf("%v first: live executions %d, trace hits %d; want 1, 1", batch[0].Scheme, e.TraceMisses(), e.TraceHits())
		}
	}
}

// Trace records a workload once, counting a live execution, and a
// batch afterwards replays it. When a batch recorded the workload
// first, Trace returns that recording, whichever layout made it.
func TestEngineTrace(t *testing.T) {
	e := engine.New(traceProvider(t))
	ctx := context.Background()
	tr, err := e.Trace(ctx, "tiny1")
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Trace(ctx, "tiny1")
	if err != nil || again != tr {
		t.Fatalf("second call: trace %p (first %p), err %v", again, tr, err)
	}
	if e.TraceMisses() != 1 {
		t.Errorf("live executions %d, want 1", e.TraceMisses())
	}
	if _, err := e.Run(ctx, []engine.RunSpec{{Workload: "tiny1", ICache: geo8, Scheme: energy.Baseline}}); err != nil {
		t.Fatal(err)
	}
	if e.TraceHits() != 1 || e.TraceMisses() != 1 || e.Misses() != 1 {
		t.Errorf("trace hits %d, live executions %d, simulated cells %d; want 1, 1, 1",
			e.TraceHits(), e.TraceMisses(), e.Misses())
	}
	if _, err := e.Trace(ctx, "nosuch"); err == nil {
		t.Error("Trace of an unknown workload succeeded")
	}

	if _, err := e.Run(ctx, []engine.RunSpec{{Workload: "tiny2", ICache: geo8, Scheme: energy.WayPlacement, WPSize: 2 << 10}}); err != nil {
		t.Fatal(err)
	}
	placed, err := e.Trace(ctx, "tiny2")
	if err != nil {
		t.Fatal(err)
	}
	if e.TraceMisses() != 2 {
		t.Errorf("live executions %d, want 2: Trace recorded a workload the engine held", e.TraceMisses())
	}
	if placed.Instrs() == 0 {
		t.Error("the placed layout's recording is empty")
	}
}

// Failed passes are never recorded: a faulting program and an
// exhausted budget re-execute, and fail the same way, every time.
func TestTraceNotRecordedForFailedPasses(t *testing.T) {
	budget := sim.Default()
	budget.MaxInstrs = 5_000
	for _, tc := range []struct {
		name string
		spec engine.RunSpec
		opts []engine.Option
		want string
	}{
		{"fault", engine.RunSpec{Workload: "fault", ICache: geo8, Scheme: energy.Baseline}, nil, "misaligned load"},
		{"budget", engine.RunSpec{Workload: "tiny1", ICache: geo8, Scheme: energy.Baseline},
			[]engine.Option{engine.WithBaseConfig(budget)}, "budget"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			e := engine.New(traceProvider(t), engine.WithObserver(reg))
			other := tc.spec
			other.ICache = geo16
			var errs []string
			for _, spec := range []engine.RunSpec{tc.spec, other} {
				_, err := e.Run(context.Background(), []engine.RunSpec{spec}, tc.opts...)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%v: error %v, want %q", spec, err, tc.want)
				}
				errs = append(errs, strings.ReplaceAll(err.Error(), "16KB-16way", "8KB-8way"))
			}
			if errs[0] != errs[1] {
				t.Errorf("re-execution failed differently:\n%s\n%s", errs[0], errs[1])
			}
			if e.TraceHits() != 0 || e.Misses() != 2 {
				t.Errorf("trace hits %d, misses %d; want 0, 2", e.TraceHits(), e.Misses())
			}
			if v := reg.Gauge(engine.MetricTraceBytes).Value(); v != 0 {
				t.Errorf("a failed pass was recorded: %s = %v", engine.MetricTraceBytes, v)
			}
		})
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// n-th call on, so a test can cancel deterministically inside a pass:
// replay checks Err once per chunk.
type cancelAfter struct {
	context.Context
	calls, n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n.Load() {
		return context.Canceled
	}
	return nil
}

// Cancelling a batch during a replay poisons neither the run cache nor
// the trace table: the same cells run again afterwards, from the same
// trace, and match live execution.
func TestTraceReplayCancelled(t *testing.T) {
	e := engine.New(traceProvider(t))
	ctx := context.Background()
	if _, err := e.Run(ctx, []engine.RunSpec{{Workload: "tiny1", ICache: geo8, Scheme: energy.Baseline}}); err != nil {
		t.Fatal(err)
	}
	specs := []engine.RunSpec{
		{Workload: "tiny1", ICache: geo8, Scheme: energy.WayMemoization},
		{Workload: "tiny1", ICache: geo16, Scheme: energy.Baseline},
	}
	// Call 1 is the group's pre-flight check, call 2 the first chunk;
	// the second chunk (tiny1 spans two) sees the cancellation.
	cctx := &cancelAfter{Context: ctx}
	cctx.n.Store(3)
	if _, err := e.Run(cctx, specs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay: %v", err)
	}
	if e.TraceHits() != 1 {
		t.Fatalf("trace hits %d, want 1: the cancellation did not land in a replay", e.TraceHits())
	}
	got, err := e.Run(ctx, specs)
	if err != nil {
		t.Fatalf("after a cancelled replay: %v", err)
	}
	for _, r := range got {
		if r.CacheHit {
			t.Errorf("%v served from the cache after its replay was cancelled", r.Spec)
		}
	}
	if e.TraceHits() != 2 {
		t.Errorf("trace hits %d, want 2: the trace was lost", e.TraceHits())
	}
	sameStats(t, got, reference(t, sim.Default(), specs))
}

// A trace is reused only under the producer-side configuration it was
// recorded with: another D-cache, I-TLB or budget executes live, while
// a base differing only on the instruction side (array style) replays.
func TestTraceKeyedByStreamConfig(t *testing.T) {
	e := engine.New(traceProvider(t))
	ctx := context.Background()
	spec := []engine.RunSpec{{Workload: "tiny1", ICache: geo8, Scheme: energy.Baseline}}
	if _, err := e.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	dcache := sim.Default()
	dcache.DCache = geo8
	budget := sim.Default()
	budget.MaxInstrs = 50_000_000
	itlb := sim.Default()
	itlb.ITLB.Entries = 8
	for _, base := range []sim.Config{dcache, budget, itlb} {
		got, err := e.Run(ctx, spec, engine.WithBaseConfig(base))
		if err != nil {
			t.Fatal(err)
		}
		if e.TraceHits() != 0 {
			t.Fatalf("trace reused across producer configurations (d-cache %+v, i-tlb %+v, budget %d)", base.DCache, base.ITLB, base.MaxInstrs)
		}
		sameStats(t, got, reference(t, base, spec))
	}
	ram := sim.Default()
	ram.Style = energy.RAMTag
	got, err := e.Run(ctx, spec, engine.WithBaseConfig(ram))
	if err != nil {
		t.Fatal(err)
	}
	if e.TraceHits() != 1 {
		t.Errorf("trace hits %d, want 1: an instruction-side base change must replay", e.TraceHits())
	}
	sameStats(t, got, reference(t, ram, spec))
}

// Concurrent batches over shared streams record, store and replay
// traces from several goroutines at once (run under -race); every
// result still matches live execution.
func TestTraceConcurrentBatches(t *testing.T) {
	e := engine.New(traceProvider(t), engine.WithWorkers(4))
	var batches [][]engine.RunSpec
	for _, w := range []string{"tiny1", "tiny2"} {
		for _, g := range []cache.Config{geo8, geo16} {
			batches = append(batches,
				[]engine.RunSpec{{Workload: w, ICache: g, Scheme: energy.Baseline}},
				[]engine.RunSpec{{Workload: w, ICache: g, Scheme: energy.WayMemoization}},
				[]engine.RunSpec{{Workload: w, ICache: g, Scheme: energy.WayPlacement, WPSize: 2 << 10}})
		}
	}
	results := make([][]*engine.Result, len(batches))
	errs := make(chan error, len(batches))
	var wg sync.WaitGroup
	for i, b := range batches {
		wg.Add(1)
		go func(i int, b []engine.RunSpec) {
			defer wg.Done()
			res, err := e.Run(context.Background(), b)
			results[i] = res
			errs <- err
		}(i, b)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range batches {
		sameStats(t, results[i], reference(t, sim.Default(), b))
	}
	if e.Misses() != uint64(len(batches)) {
		t.Errorf("misses %d, want %d", e.Misses(), len(batches))
	}
}
