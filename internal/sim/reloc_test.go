package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"wayplace/internal/asm"
	"wayplace/internal/isa"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// linkLayouts links the test bench's unit in its original layout and
// under two block permutations.
func linkLayouts(t *testing.T, iters uint16) (original *obj.Program, permuted []*obj.Program) {
	t.Helper()
	u := buildTestBench(t, iters)
	original, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 0xabcdef} {
		p, err := layout.LinkPermuted(u, seed, textBase)
		if err != nil {
			t.Fatal(err)
		}
		permuted = append(permuted, p)
	}
	return original, permuted
}

// A relocating source emits exactly the chunks — segments, runs and
// repeats — of a FetchSource over the target layout, without event
// words, at every run-segmentation granule, and ends with its producer
// outcome, the target's reference I-TLB included. The I-TLB's two
// 64-byte pages are far smaller than the program, so its misses depend
// on the layout.
func TestRelocSourceMatchesFetchSource(t *testing.T) {
	original, permuted := linkLayouts(t, 60)
	cfg := Default()
	cfg.ITLB = tlb.Config{Entries: 2, PageBytes: 64}
	ctx := context.Background()
	_, tr, err := RecordMulti(ctx, original, cfg, []ModelSpec{ModelSpecOf(cfg)})
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	if tr.Instrs() < 2*fetchChunkEvents {
		t.Fatalf("trace has %d events; the test needs segments crossing chunks", tr.Instrs())
	}
	for _, prog := range append(permuted, original) {
		for _, block := range []int{4, 8, 32, 64} {
			live, err := NewFetchSource(prog, cfg, block)
			if err != nil {
				t.Fatal(err)
			}
			reloc, err := NewRelocSource(tr, prog, block)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; ; n++ {
				want, err := live.NextChunk(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := reloc.NextChunk(ctx)
				if err != nil {
					t.Fatal(err)
				}
				sameChunk(t, block, n, got, want)
				if want == nil {
					break
				}
			}
			if got, want := reloc.outcome(), live.outcome(); got != want {
				t.Errorf("block %d: outcome %+v, want %+v", block, got, want)
			}
		}
	}
}

// A taken branch to the next instruction leaves no mark in a recorded
// segment, which runs straight on into the branch target's block. A
// layout that moves that block elsewhere must split the segment there,
// and relocating that layout's recording back onto the original must
// merge the two pieces into one segment again.
func TestRelocationSplitsAtBranchToNextBlock(t *testing.T) {
	b := asm.NewBuilder("jmpnext")
	f := b.Func("main")
	f.Movi(isa.R5, 3000)
	f.Block("loop")
	f.Subi(isa.R5, isa.R5, 1)
	f.Jmp("next")
	f.Block("next")
	f.Addi(isa.R0, isa.R0, 1)
	f.Cmpi(isa.R5, 0)
	f.Bgt("loop")
	f.Halt()
	for _, name := range []string{"pad1", "pad2", "pad3"} { // chains to shuffle
		b.Func(name).Nop().Ret()
	}
	u := b.MustBuild()
	original, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	ctx := context.Background()
	models := traceModels(cfg)
	_, tr, err := RecordMulti(ctx, original, cfg, models)
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	moved := 0
	for seed := uint64(1); seed <= 8; seed++ {
		prog, err := layout.LinkPermuted(u, seed, textBase)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Syms["main.next"] != prog.Syms["main.loop"]+8 {
			moved++
		}
		want, err := RunMulti(ctx, prog, cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReplayMulti(ctx, tr, prog, cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: relocation differs from the live pass", seed)
		}
		_, permTr, err := RecordMulti(ctx, prog, cfg, models)
		if err != nil || permTr == nil {
			t.Fatalf("seed %d: record: trace %v, err %v", seed, permTr, err)
		}
		live, err := NewFetchSource(original, cfg, 32)
		if err != nil {
			t.Fatal(err)
		}
		back, err := NewRelocSource(permTr, original, 32)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; ; n++ {
			want, err := live.NextChunk(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.NextChunk(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sameChunk(t, 32, n, got, want)
			if want == nil {
				break
			}
		}
	}
	if moved == 0 {
		t.Fatal("no permutation moved the branch target away; the test checks nothing")
	}
}

// Relocations of one trace from several goroutines at once (run under
// -race), onto other layouts and onto the recorded one, each match the
// live pass over their target.
func TestConcurrentRelocations(t *testing.T) {
	original, permuted := linkLayouts(t, 60)
	cfg := Default()
	ctx := context.Background()
	models := traceModels(cfg)
	_, tr, err := RecordMulti(ctx, permuted[0], cfg, models)
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	targets := []*obj.Program{original, original, permuted[1], permuted[0]}
	got := make([][]*ModelResult, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, prog := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ReplayMulti(ctx, tr, prog, cfg, models)
		}()
	}
	wg.Wait()
	for i, prog := range targets {
		if errs[i] != nil {
			t.Fatalf("relocation %d: %v", i, errs[i])
		}
		want, err := RunMulti(ctx, prog, cfg, models)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("relocation %d differs from the live pass", i)
		}
	}
}

// A recording's profile is a profiling run's, whichever layout of the
// unit it was recorded on.
func TestTraceProfile(t *testing.T) {
	original, permuted := linkLayouts(t, 20)
	cfg := Default()
	want, _, err := ProfileRun(original, cfg.MaxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, prog := range append([]*obj.Program{original}, permuted...) {
		_, tr, err := RecordMulti(context.Background(), prog, cfg, []ModelSpec{ModelSpecOf(cfg)})
		if err != nil || tr == nil {
			t.Fatalf("record: trace %v, err %v", tr, err)
		}
		got, err := tr.Profile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("layout %d: the recording's profile differs from a profiling run's", i)
		}
		bad := *tr
		bad.events++ // one event more than the segments hold
		if _, err := bad.Profile(); err == nil {
			t.Error("profiling a corrupt trace succeeded")
		}
	}
}
