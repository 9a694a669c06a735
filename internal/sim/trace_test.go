package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
)

// traceModels mixes every model shape a replay has to drive: the bulk
// engines at two line sizes, the per-event NoSameLine model and the
// adaptive policy.
func traceModels(cfg Config) []ModelSpec {
	wide := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 64}
	pol := DefaultAdaptivePolicy(cfg.ICache, cfg.ITLB.PageBytes)
	pol.IntervalInstrs = 10_000
	return []ModelSpec{
		{Geometry: cfg.ICache, Scheme: energy.Baseline},
		{Geometry: wide, Scheme: energy.WayMemoization},
		{Geometry: cfg.ICache, Scheme: energy.WayPlacement, WPSize: 1 << 10},
		{Geometry: cfg.ICache, Scheme: energy.WayPlacement, WPSize: 1 << 10, NoSameLine: true},
		{Geometry: cfg.ICache, Adaptive: &pol},
	}
}

func linkTestBench(t *testing.T, iters uint16) *obj.Program {
	t.Helper()
	p, err := layout.LinkOriginal(buildTestBench(t, iters), textBase)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A replay spanning many chunks (segments crossing chunk boundaries)
// reproduces the live pass exactly, for every model shape.
func TestReplayMatchesLiveAcrossChunks(t *testing.T) {
	prog := linkTestBench(t, 200)
	cfg := Default()
	models := traceModels(cfg)
	ctx := context.Background()
	live, tr, err := RecordMulti(ctx, prog, cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if tr.Instrs() < 4*fetchChunkEvents {
		t.Fatalf("trace has %d events; the test needs several chunks", tr.Instrs())
	}
	// Sequential loops compress to almost nothing.
	if perInstr := float64(tr.Bytes()) / float64(tr.Instrs()); perInstr > 0.05 {
		t.Errorf("trace takes %.3f bytes/instr", perInstr)
	}
	want, err := RunMulti(ctx, prog, cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, want) {
		t.Fatal("recording pass differs from RunMulti")
	}
	for i := 0; i < 2; i++ { // a trace is reusable
		got, err := ReplayMulti(ctx, tr, prog, cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d differs from the live pass", i)
		}
	}
}

// A TraceSource emits exactly the chunks — events and runs — of the
// FetchSource it was recorded from, at every run-segmentation granule.
func TestTraceSourceMatchesFetchSource(t *testing.T) {
	prog := linkTestBench(t, 200)
	cfg := Default()
	ctx := context.Background()
	_, tr, err := RecordMulti(ctx, prog, cfg, []ModelSpec{ModelSpecOf(cfg)})
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	for _, block := range []int{4, 8, 32, 1024} {
		live, err := NewFetchSource(prog, cfg, block)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := NewTraceSource(tr, block)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; ; n++ {
			want, err := live.NextChunk(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replay.NextChunk(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("block %d: chunk %d differs from the live chunk", block, n)
			}
			if want == nil {
				break
			}
		}
	}
}

// A trace only replays for the program and producer-side configuration
// it was recorded under; the instruction side is free to differ.
func TestReplayRejectsOtherStreams(t *testing.T) {
	prog := linkTestBench(t, 5)
	cfg := Default()
	ctx := context.Background()
	models := []ModelSpec{ModelSpecOf(cfg)}
	_, tr, err := RecordMulti(ctx, prog, cfg, models)
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	other := cfg
	other.ICache.Ways = 8
	other.ITLB.Entries = 16
	if !tr.matches(prog, other) {
		t.Error("instruction-side change rejected")
	}
	otherModels := []ModelSpec{ModelSpecOf(other)}
	got, err := ReplayMulti(ctx, tr, prog, other, otherModels)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := RunMulti(ctx, prog, other, otherModels); !reflect.DeepEqual(got, want) {
		t.Error("replay under another instruction side differs from its live pass")
	}
	dc := cfg
	dc.DCache.Ways = 8
	budget := cfg
	budget.MaxInstrs--
	for name, c := range map[string]Config{"d-cache": dc, "budget": budget} {
		if tr.matches(prog, c) {
			t.Errorf("%s change accepted", name)
		}
		if _, err := ReplayMulti(ctx, tr, prog, c, models); err == nil {
			t.Errorf("%s change replayed", name)
		}
	}
	if _, err := ReplayMulti(ctx, tr, linkTestBench(t, 5), cfg, models); err == nil {
		t.Error("another program replayed")
	}
}

// Only complete passes are recorded: an over-cap stream, a budget
// exhaustion and a pass whose every model failed leave no trace.
func TestRecordOnlyCompletePasses(t *testing.T) {
	prog := linkTestBench(t, 200)
	cfg := Default()
	ctx := context.Background()
	models := []ModelSpec{ModelSpecOf(cfg)}

	res, tr, err := recordMulti(ctx, prog, cfg, models, 16)
	if err != nil || tr != nil {
		t.Errorf("over-cap recording: trace %v, err %v", tr, err)
	}
	if want, _ := RunMulti(ctx, prog, cfg, models); !reflect.DeepEqual(res, want) {
		t.Error("abandoning the recording changed the pass's results")
	}

	short := cfg
	short.MaxInstrs = 1000
	if _, tr, err := RecordMulti(ctx, prog, short, models); err == nil || tr != nil {
		t.Errorf("budget exhaustion: trace %v, err %v", tr, err)
	}

	bad := []ModelSpec{{Geometry: cache.Config{SizeBytes: 3}}}
	if res, tr, err := RecordMulti(ctx, prog, cfg, bad); err != nil || tr != nil || res[0].Err == nil {
		t.Errorf("all-invalid pass: trace %v, err %v", tr, err)
	}
}

// Replay honours cancellation at chunk granularity.
func TestReplayCancelled(t *testing.T) {
	prog := linkTestBench(t, 200)
	cfg := Default()
	models := []ModelSpec{ModelSpecOf(cfg)}
	_, tr, err := RecordMulti(context.Background(), prog, cfg, models)
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReplayMulti(ctx, tr, prog, cfg, models); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay: %v", err)
	}
	if _, err := ReplayMulti(context.Background(), tr, prog, cfg, models); err != nil {
		t.Fatalf("trace unusable after a cancelled replay: %v", err)
	}
}

// A corrupt encoding fails the replay instead of inventing events.
func TestReplayCorruptTrace(t *testing.T) {
	prog := linkTestBench(t, 5)
	cfg := Default()
	models := []ModelSpec{ModelSpecOf(cfg)}
	_, tr, err := RecordMulti(context.Background(), prog, cfg, models)
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	bad := *tr
	bad.encoded = bad.encoded[:len(bad.encoded)/2]
	_, err = ReplayMulti(context.Background(), &bad, prog, cfg, models)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated trace: %v", err)
	}
}
