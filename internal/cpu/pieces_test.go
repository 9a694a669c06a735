package cpu

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wayplace/internal/asm"
	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/isa"
	"wayplace/internal/layout"
	"wayplace/internal/mem"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// The piece loop against an independent oracle: the same program
// stepped one instruction at a time, each instruction's fetch event
// (PC | lastIndirect) captured from the architectural state before it
// executes. RunPieces must hand on exactly that event sequence, as
// maximal sequential pieces, and leave the machine in the same state,
// faults included.

// machine builds a CPU over p with the data side attached, as a fetch
// source runs it, and with hooks also the instruction side.
func machine(p *obj.Program, hooks bool) *CPU {
	c := New(p, mem.New(mem.DefaultConfig()))
	if hooks {
		e, err := cache.NewBaseline(cache.Config{SizeBytes: 1 << 10, Ways: 8, LineBytes: 32})
		if err != nil {
			panic(err)
		}
		attach(c, e, 0)
		return c
	}
	c.DTLB = tlb.MustNew(tlb.Config{Entries: 32, PageBytes: 1 << 10})
	dc, err := cache.NewData(cache.Config{SizeBytes: 32 << 10, Ways: 32, LineBytes: 32})
	if err != nil {
		panic(err)
	}
	c.DCache = dc
	return c
}

// stepEvents runs c one Step at a time under maxInstrs, returning the
// event of every instruction that completed.
func stepEvents(c *CPU, maxInstrs uint64) ([]uint32, error) {
	var evs []uint32
	for !c.Halted {
		if c.Instrs >= maxInstrs {
			return evs, fmt.Errorf("cpu: instruction budget %d exhausted at pc=%#x", maxInstrs, c.PC)
		}
		ev := c.PC
		if c.lastIndirect {
			ev |= EventIndirect
		}
		if err := c.Step(); err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// pieceEvents runs c through RunPieces in calls of chunk instructions
// each, as a fetch source does, and expands the pieces. Inside one call
// no piece may continue the one before it.
func pieceEvents(t *testing.T, c *CPU, maxInstrs, chunk uint64) ([]uint32, error) {
	t.Helper()
	var evs []uint32
	var end uint32 // the event word that would continue the last piece
	piece := func(w, n uint32) {
		if n == 0 || w == end {
			t.Fatalf("piece (%#x, %d) after a piece ending at %#x", w, n, end)
		}
		for i := uint32(0); i < n; i++ {
			if i == 0 {
				evs = append(evs, w)
			} else {
				evs = append(evs, EventAddr(w)+4*i)
			}
		}
		end = EventAddr(w) + 4*n
	}
	for !c.Halted {
		end = 0
		n, err := c.RunPieces(chunk, maxInstrs, piece)
		if err != nil {
			return evs, err
		}
		if n != chunk && !c.Halted {
			t.Fatalf("RunPieces ran %d of %d instructions without halting", n, chunk)
		}
	}
	return evs, nil
}

// cpuState is everything a run leaves behind that a result reads.
type cpuState struct {
	Regs           [isa.NumRegs]uint32
	Flags          isa.Flags
	PC             uint32
	Halted, Ind    bool
	Cycles, Instrs uint64
	MemHash        uint64
	MemStats       mem.Stats
	DStats, IStats cache.Stats
	DTLB, ITLB     tlb.Stats
	Counts         []uint64
}

func stateOf(c *CPU) cpuState {
	s := cpuState{
		Regs: c.Regs, Flags: c.Flags, PC: c.PC, Halted: c.Halted, Ind: c.lastIndirect,
		Cycles: c.Cycles, Instrs: c.Instrs,
		MemHash: c.Mem.Hash(^uint32(0)), MemStats: c.Mem.Stats,
		DStats: c.DCache.Cache().Stats, DTLB: c.DTLB.Stats,
		Counts: c.counts,
	}
	if c.IFetch != nil {
		s.IStats, s.ITLB = c.IFetch.Cache().Stats, c.ITLB.Stats
	}
	return s
}

// checkPieces runs p both ways, detached and with the instruction side
// attached, and compares events, errors and final state. It returns
// the oracle's error.
func checkPieces(t *testing.T, name string, p *obj.Program, maxInstrs uint64) error {
	t.Helper()
	var wantErr error
	for _, hooks := range []bool{false, true} {
		for _, chunk := range []uint64{4093, 1 << 16} {
			oracle, pieces := machine(p, hooks), machine(p, hooks)
			want, werr := stepEvents(oracle, maxInstrs)
			got, gerr := pieceEvents(t, pieces, maxInstrs, chunk)
			wantErr = werr
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s (hooks %v, chunk %d): error %v, stepping %v", name, hooks, chunk, gerr, werr)
			}
			if !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("%s (hooks %v, chunk %d): %d events, stepping %d; first difference at %d",
					name, hooks, chunk, len(got), len(want), i)
			}
			if g, w := stateOf(pieces), stateOf(oracle); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s (hooks %v, chunk %d): final state\n%+v\nstepping\n%+v", name, hooks, chunk, g, w)
			}
		}
	}
	return wantErr
}

func TestPiecesMatchSteppingOnBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		if testing.Short() && b.Name != "crc" {
			continue
		}
		u, err := b.Build(bench.Small)
		if err != nil {
			t.Fatal(err)
		}
		p, err := layout.LinkOriginal(u, 0x1_0000)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPieces(t, b.Name, p, 2_000_000_000); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}

func TestPiecesMatchSteppingOnRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		if err := checkPieces(t, fmt.Sprintf("seed %d", seed), genProgram(seed), 5_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPiecesMergeJumpToNextWord: a taken branch to the next word
// continues the piece, and a return to the next word starts a flagged
// one.
func TestPiecesMergeJumpToNextWord(t *testing.T) {
	b := asm.NewBuilder("f")
	f := b.Func("main")
	f.Movi(isa.R1, 1)     // 0x10000
	f.Jmp("next")         // 0x10004
	f.Block("next")       //
	f.Li(isa.LR, 0x10014) // 0x10008, 0x1000c
	f.Ret()               // 0x10010
	f.Halt()              // 0x10014
	p := link(t, b)
	if err := checkPieces(t, "jump to the next word", p, 100); err != nil {
		t.Fatal(err)
	}
	type pc struct{ w, n uint32 }
	var got []pc
	c := machine(p, false)
	if _, err := c.RunPieces(100, 100, func(w, n uint32) { got = append(got, pc{w, n}) }); err != nil {
		t.Fatal(err)
	}
	if want := []pc{{0x10000, 5}, {0x10014 | EventIndirect, 1}}; !slices.Equal(got, want) {
		t.Fatalf("pieces %x, want %x", got, want)
	}
}

// TestPiecesFaultLikeStepping: every way a run can stop short gives
// the same error, PC, instruction count and state, mid-piece included.
// The instruction counts are worked out by hand: a faulting
// instruction retires, a fetch outside the image does not.
func TestPiecesFaultLikeStepping(t *testing.T) {
	// prologue puts the next instruction deep inside its piece, which
	// starts at a loop head reached by a taken branch.
	prologue := func(f *asm.FuncBuilder) {
		f.Movi(isa.R3, 2)
		f.Block("head")
		f.Subi(isa.R3, isa.R3, 1)
		f.Cmpi(isa.R3, 0)
		f.Bne("head")
		f.Movi(isa.R1, 2)
		f.Movi(isa.R2, 9)
	}
	cases := []struct {
		name      string
		body      func(f *asm.FuncBuilder)
		patch     func(p *obj.Program) // edits the linked code
		maxInstrs uint64
		want      string
		instrs    uint64
	}{
		{"misaligned load", func(f *asm.FuncBuilder) {
			prologue(f)
			f.Ldr(isa.R0, isa.R1, 0)
			f.Halt()
		}, nil, 100, "misaligned load at 0x2", 10},
		{"misaligned store", func(f *asm.FuncBuilder) {
			prologue(f)
			f.Str(isa.R2, isa.R1, 4)
			f.Halt()
		}, nil, 100, "misaligned store at 0x6", 10},
		{"fetch past the end of the code", func(f *asm.FuncBuilder) {
			prologue(f)
			f.Halt()
		}, func(p *obj.Program) { p.Code[len(p.Code)-1] = isa.Instr{Op: isa.NOP} }, 100, "instruction fetch outside image", 10},
		{"unimplemented operation", func(f *asm.FuncBuilder) {
			prologue(f)
			f.Nop()
			f.Halt()
		}, func(p *obj.Program) { p.Code[len(p.Code)-2] = isa.Instr{Op: isa.Op(0xff)} }, 100, "unimplemented operation", 10},
		{"budget exhausted mid-piece", func(f *asm.FuncBuilder) {
			f.Block("spin")
			for i := 0; i < 10; i++ {
				f.Nop()
			}
			f.Jmp("spin")
		}, nil, 27, "instruction budget 27 exhausted at pc=0x10014", 27},
	}
	for _, tc := range cases {
		b := asm.NewBuilder("f")
		tc.body(b.Func("main"))
		p := link(t, b)
		if tc.patch != nil {
			tc.patch(p)
		}
		err := checkPieces(t, tc.name, p, tc.maxInstrs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one saying %q", tc.name, err, tc.want)
		}
		c := machine(p, false)
		if _, err := c.Run(tc.maxInstrs); err == nil || c.Instrs != tc.instrs {
			t.Errorf("%s: stopped after %d instructions (error %v), want %d", tc.name, c.Instrs, err, tc.instrs)
		}
	}
}
