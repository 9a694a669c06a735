package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/energy"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
)

// traceModels mixes every model shape a replay has to drive: the bulk
// engines at two line sizes, the same-line ablation (NoSameLine) and
// the adaptive policy.
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
// it was recorded under, the I-TLB included (the recording holds the
// reference I-TLB's outcome); the I-cache is free to differ.
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
	itlb := cfg
	itlb.ITLB.Entries = 16
	for name, c := range map[string]Config{"d-cache": dc, "budget": budget, "i-tlb": itlb} {
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

	res, tr, err := recordMulti(ctx, prog, cfg, models, 16, func(block int) (streamSource, error) {
		return NewFetchSource(prog, cfg, block)
	})
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
	segs, reps := *tr, *tr
	segs.segs = segs.segs[:len(segs.segs)/2]
	reps.reps = reps.reps[:len(reps.reps)/2]
	for name, bad := range map[string]*FetchTrace{"segments": &segs, "repeats": &reps} {
		_, err = ReplayMulti(context.Background(), bad, prog, cfg, models)
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("truncated %s: %v", name, err)
		}
	}
}

// plantedSource emits a fixed event stream in production-sized chunks,
// analysed as a FetchSource analyses its own.
type plantedSource struct {
	ev       []uint32
	blockNeg uint32
	runs     []FetchRun
	reps     repeatFinder
}

func (s *plantedSource) NextChunk(context.Context) (*FetchChunk, error) {
	if len(s.ev) == 0 {
		return nil, nil
	}
	n := min(len(s.ev), fetchChunkEvents)
	ev := s.ev[:n]
	s.ev = s.ev[n:]
	s.runs = segmentRuns(ev, s.blockNeg, s.runs[:0])
	ch := &FetchChunk{Events: ev, Runs: s.runs}
	ch.Reps = s.reps.find(ch)
	return ch, nil
}

func (s *plantedSource) outcome() producerOutcome { return producerOutcome{} }

// recordPlanted records ev as a trace whose repeats were found at
// block bytes.
func recordPlanted(t *testing.T, ev []uint32, block int) *FetchTrace {
	t.Helper()
	rec := newTraceRecorder(&plantedSource{ev: ev, blockNeg: uint32(block - 1)}, nil, StreamConfigOf(Default()), block, traceMaxBytes)
	for {
		ch, err := rec.NextChunk(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			break
		}
	}
	if rec.trace == nil {
		t.Fatal("planted stream recorded no trace")
	}
	return rec.trace
}

// plantStream draws a fetch stream of a little over two chunks from
// seed: straight-line code, tight loops that jump back inside one
// block, repeated loop bodies, indirect transfers (some of them to the
// next word), and one long straight segment across the first chunk
// boundary.
func plantStream(seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	var ev []uint32
	addr := uint32(0x10000)
	straight := func(n int) {
		for ; n > 0; n-- {
			ev = append(ev, addr)
			addr += 4
		}
	}
	for len(ev) < 2*fetchChunkEvents+5000 {
		if d := fetchChunkEvents - len(ev); d > 0 && d < 600 {
			straight(1000)
			continue
		}
		switch rng.Intn(5) {
		case 0:
			straight(1 + rng.Intn(40))
		case 1: // a tight loop: 2-4 words, jumping back inside a block
			body := 2 + rng.Intn(3)
			start := addr
			for k := 1 + rng.Intn(30); k > 0; k-- {
				addr = start
				straight(body)
			}
		case 2: // a repeated loop body with an internal branch
			start, skip := addr, uint32(4*(1+rng.Intn(8)))
			for k := 2 + rng.Intn(20); k > 0; k-- {
				addr = start
				straight(3 + rng.Intn(2))
				addr += skip
				straight(2)
			}
		case 3: // an indirect transfer, sometimes to the next word
			if rng.Intn(2) == 0 {
				addr = 0x10000 + 4*uint32(rng.Intn(1<<14))
			}
			ev = append(ev, addr|cpu.EventIndirect)
			addr += 4
		default: // a direct jump, forward or back
			addr = 0x10000 + 4*uint32(rng.Intn(1<<14))
		}
	}
	return ev
}

// A TraceSource cuts runs per decoded segment; on planted streams they
// equal segmentRuns on the same events, at every granule from a word
// to a page, and its repeats equal a fresh finder's whether it
// re-emits the recorded ones (at the recorded granule) or finds its
// own (at any other).
func FuzzTraceSourceRuns(f *testing.F) {
	for lg := uint8(2); lg <= 10; lg++ {
		f.Add(int64(lg), lg)
	}
	f.Fuzz(func(t *testing.T, seed int64, blockLog uint8) {
		block := 4 << (blockLog % 9)
		ev := plantStream(seed)
		tr := recordPlanted(t, ev, block)
		for _, replay := range []int{block, 4 << ((blockLog + 3) % 9)} {
			src, err := NewTraceSource(tr, replay)
			if err != nil {
				t.Fatal(err)
			}
			if reused := replay == block; reused != (src.find == nil) {
				t.Fatalf("replay at %d of a trace recorded at %d: reuses the recorded repeats %v", replay, block, !reused)
			}
			var finder repeatFinder
			at := 0
			for n := 0; ; n++ {
				ch, err := src.NextChunk(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if ch == nil {
					break
				}
				if !slices.Equal(ch.Events, ev[at:at+len(ch.Events)]) {
					t.Fatalf("block %d: chunk %d events differ from the planted stream", replay, n)
				}
				at += len(ch.Events)
				if want := segmentRuns(ch.Events, uint32(replay-1), nil); !slices.Equal(ch.Runs, want) {
					t.Fatalf("block %d: chunk %d has %d runs, segmentRuns %d", replay, n, len(ch.Runs), len(want))
				}
				if want := finder.find(ch); !slices.Equal(ch.Reps, want) {
					t.Fatalf("block %d: chunk %d has %d repeats, the finder %d", replay, n, len(ch.Reps), len(want))
				}
			}
			if at != len(ev) {
				t.Fatalf("block %d: replayed %d of %d events", replay, at, len(ev))
			}
		}
	})
}

// A replay whose group segments at a finer granule than the recording
// pass finds its own repeats: a trace recorded by 32-byte-line models,
// replayed by a group with 16-byte-line models, matches RunMulti and
// charges the same runs in closed form.
func TestReplayAtAnotherGranule(t *testing.T) {
	prog := crcProgram(t)
	cfg := Default()
	ctx := context.Background()
	recorded := []ModelSpec{
		{Geometry: cfg.ICache, Scheme: energy.Baseline},
		{Geometry: cfg.ICache, Scheme: energy.WayPlacement, WPSize: 4 << 10},
	}
	_, tr, err := RecordMulti(ctx, prog, cfg, recorded)
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	if tr.block != 32 {
		t.Fatalf("recorded at a %d-byte granule, want 32", tr.block)
	}
	narrow := cache.Config{SizeBytes: 8 << 10, Ways: 4, LineBytes: 16}
	models := append(slices.Clone(recorded),
		ModelSpec{Geometry: narrow, Scheme: energy.Baseline},
		ModelSpec{Geometry: narrow, Scheme: energy.WayMemoization})
	repeated := make(map[ModelSpec]uint64)
	testHookRepeatedRuns = func(spec ModelSpec, n uint64) { repeated[spec] += n }
	defer func() { testHookRepeatedRuns = nil }()
	got, err := ReplayMulti(ctx, tr, prog, cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	replayed := repeated
	repeated = make(map[ModelSpec]uint64)
	want, err := RunMulti(ctx, prog, cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replay at a 16-byte granule differs from the live pass")
	}
	if !reflect.DeepEqual(replayed, repeated) {
		t.Errorf("closed-form runs: replay %v, live %v", replayed, repeated)
	}
	if repeated[models[2]] == 0 {
		t.Error("the 16-byte baseline charged no run in closed form: no repeats were found")
	}
}

// Replays of one trace from several goroutines at once (run under
// -race) share its recorded repeats, and each matches the live pass;
// half of them segment at another granule and find their own.
func TestConcurrentReplays(t *testing.T) {
	prog := linkTestBench(t, 200)
	cfg := Default()
	ctx := context.Background()
	same := traceModels(cfg)
	finer := append(slices.Clone(same), ModelSpec{Geometry: cache.Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 16}, Scheme: energy.Baseline})
	_, tr, err := RecordMulti(ctx, prog, cfg, same)
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	sets := [][]ModelSpec{same, finer, same, finer}
	got := make([][]*ModelResult, len(sets))
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, models := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ReplayMulti(ctx, tr, prog, cfg, models)
		}()
	}
	wg.Wait()
	for i, models := range sets {
		if errs[i] != nil {
			t.Fatalf("replay %d: %v", i, errs[i])
		}
		want, err := RunMulti(ctx, prog, cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("concurrent replay %d differs from the live pass", i)
		}
	}
}
