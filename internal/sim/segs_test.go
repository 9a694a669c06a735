package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/energy"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// eventlessSource passes on a live source's chunks with their event
// words taken away, and drives a reference I-TLB of its own over them.
type eventlessSource struct {
	src  streamSource
	itlb refITLB
}

func (s *eventlessSource) NextChunk(ctx context.Context) (*FetchChunk, error) {
	ch, err := s.src.NextChunk(ctx)
	if ch == nil || err != nil {
		return ch, err
	}
	stripped := *ch
	stripped.Events = nil
	s.itlb.translate(&stripped)
	return &stripped, nil
}

func (s *eventlessSource) outcome() producerOutcome { return s.src.outcome() }

// No consumer reads a chunk's event words: every model kind, the
// recorder and the reference I-TLB give the same stats, resize trace
// and trace bytes on live chunks whose Events is nil (where any read
// would panic) as on the intact chunks. The I-TLB's two 64-byte pages
// make its outcome depend on every run.
func TestConsumersIgnoreEvents(t *testing.T) {
	prog, _ := linkBenchLayouts(t, "rawcaudio")
	cfg := Default()
	cfg.ITLB = tlb.Config{Entries: 2, PageBytes: 64}
	lru := cfg.ICache
	lru.Policy = cache.LRU
	models := append(traceModels(cfg), ModelSpec{Geometry: lru, Scheme: energy.WayPlacement, WPSize: 1 << 10})
	ctx := context.Background()
	want, wantTr, err := RecordMulti(ctx, prog, cfg, models)
	if err != nil || wantTr == nil {
		t.Fatalf("record: trace %v, err %v", wantTr, err)
	}
	var es *eventlessSource
	got, gotTr, err := recordMulti(ctx, prog, cfg, models, traceMaxBytes, func(block int) (streamSource, error) {
		src, err := NewFetchSource(prog, cfg, block)
		if err != nil {
			return nil, err
		}
		itlb, err := tlb.New(cfg.ITLB)
		if err != nil {
			return nil, err
		}
		es = &eventlessSource{src: src, itlb: refITLB{tlb: itlb, page: noPage}}
		return es, nil
	})
	if err != nil || gotTr == nil {
		t.Fatalf("eventless record: trace %v, err %v", gotTr, err)
	}
	for i := range models {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("model %d (%+v): eventless chunks give\n%+v\nintact chunks\n%+v", i, models[i], got[i], want[i])
		}
	}
	if len(want[len(traceModels(cfg))-1].AreaChanges) < 2 {
		t.Error("the adaptive model never resized its area; the test checks no decision")
	}
	if !bytes.Equal(gotTr.segs, wantTr.segs) || !bytes.Equal(gotTr.reps, wantTr.reps) || gotTr.events != wantTr.events {
		t.Error("recording eventless chunks gives other trace bytes")
	}
	if got, want := es.itlb.tlb.Stats, wantTr.out.itlbStats; got != want || want.Misses < 100 {
		t.Errorf("I-TLB over eventless chunks %+v, the source's own %+v", got, want)
	}
}

// linkBenchLayouts links a benchmark's small input in its original
// layout and under one block permutation.
func linkBenchLayouts(t *testing.T, name string) (original, permuted *obj.Program) {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	u, err := b.Build(bench.Small)
	if err != nil {
		t.Fatal(err)
	}
	if original, err = layout.LinkOriginal(u, textBase); err != nil {
		t.Fatal(err)
	}
	if permuted, err = layout.LinkPermuted(u, 0xabcdef, textBase); err != nil {
		t.Fatal(err)
	}
	return original, permuted
}

// jumpyShare is the share of prog's 32-byte-block runs that hold more
// than one sequential piece.
func jumpyShare(t *testing.T, prog *obj.Program, cfg Config) float64 {
	t.Helper()
	src, err := NewFetchSource(prog, cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	var runs, jumpy int
	for {
		ch, err := src.NextChunk(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			return float64(jumpy) / float64(runs)
		}
		for _, r := range ch.Runs {
			runs++
			sg := ch.Segs[r.Seg]
			if (cpu.EventAddr(r.First)-cpu.EventAddr(sg.Word))>>2+r.N > sg.N {
				jumpy++
			}
		}
	}
}

// Adaptive decision points fall inside runs that hold several pieces
// (jumps inside a block), about half of all runs on the ADPCM codecs.
// Recording, replaying and replaying relocated, the adaptive model
// finds the events at each split by walking the segments, and matches
// the coupled loop field for field, resize trace included, at two
// prime intervals and the default.
func TestAdaptiveSplitsJumpyRuns(t *testing.T) {
	ctx := context.Background()
	cfg := Default()
	for _, name := range []string{"rawcaudio", "rawdaudio"} {
		original, permuted := linkBenchLayouts(t, name)
		if share := jumpyShare(t, original, cfg); share < 0.4 {
			t.Fatalf("%s: %.2f of its runs hold several pieces; the test needs jumpy runs", name, share)
		}
		var pols []AdaptivePolicy
		var models []ModelSpec
		for _, interval := range []uint64{997, 4093, 0} {
			pol := DefaultAdaptivePolicy(cfg.ICache, cfg.ITLB.PageBytes)
			if interval != 0 {
				pol.IntervalInstrs = interval
			}
			pols = append(pols, pol)
			models = append(models, ModelSpec{Geometry: cfg.ICache, Adaptive: &pols[len(pols)-1]})
		}
		recorded, tr, err := RecordMulti(ctx, original, cfg, models)
		if err != nil || tr == nil {
			t.Fatalf("%s: record: trace %v, err %v", name, tr, err)
		}
		replayed, err := ReplayMulti(ctx, tr, original, cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		relocated, err := ReplayMulti(ctx, tr, permuted, cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		for i, pol := range pols {
			for _, pass := range []struct {
				name string
				prog *obj.Program
				got  *ModelResult
			}{
				{"recorded", original, recorded[i]},
				{"replayed", original, replayed[i]},
				{"relocated", permuted, relocated[i]},
			} {
				stats, changes, err := RunAdaptive(ctx, pass.prog, cfg, pol)
				if err != nil {
					t.Fatal(err)
				}
				want := &ModelResult{Stats: stats, AreaChanges: changes}
				if !reflect.DeepEqual(pass.got, want) {
					t.Errorf("%s, interval %d, %s: %+v\ncoupled %+v", name, pol.IntervalInstrs, pass.name, pass.got, want)
				}
			}
		}
	}
}
