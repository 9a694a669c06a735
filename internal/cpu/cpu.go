// Package cpu implements the XScale-like embedded core: a single-
// issue, in-order machine executing the repository's ARM-like ISA,
// with an instruction-fetch path that exercises one of the cache
// package's fetch engines, I/D TLBs and a data cache. One interpreter
// loop (RunPieces) runs every entry point, and can hand the fetch
// stream on as sequential pieces instead of driving the fetch path.
//
// The timing model is event-based: every instruction costs one base
// cycle plus stalls for cache misses, TLB walks, multiplies, taken
// branches and way-hint mispredictions. The schemes differ only in
// tag-check energy and the (rare) hint-mispredict cycle, so, as in
// the paper, performance is essentially identical across them.
package cpu

import (
	"context"
	"fmt"

	"wayplace/internal/cache"
	"wayplace/internal/isa"
	"wayplace/internal/mem"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// Timing holds the core's stall model.
type Timing struct {
	BranchTakenPenalty int // pipeline refill after a taken branch
	MulExtraCycles     int // extra result latency of MUL/MLA
	TLBWalkPenalty     int // page-table walk on a TLB miss
	HintExtraPenalty   int // second I-cache access after a wrong way hint
}

// DefaultTiming mirrors the paper's 7/8-stage in-order XScale pipeline.
func DefaultTiming() Timing {
	return Timing{
		BranchTakenPenalty: 2,
		MulExtraCycles:     2,
		TLBWalkPenalty:     20,
		HintExtraPenalty:   1,
	}
}

// Result summarises one simulation run.
type Result struct {
	Instrs uint64
	Cycles uint64
	// InstrCounts is the per-instruction execution count vector
	// (indexed like prog.Code), from which profiles are built.
	InstrCounts []uint64
}

// CPI returns cycles per instruction.
func (r *Result) CPI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instrs)
}

// CPU is one simulated core instance. IFetch, ITLB, DCache and DTLB
// are optional: with all nil the CPU is a fast functional interpreter
// (used for profiling runs on the training input).
type CPU struct {
	Prog   *obj.Program
	Mem    *mem.Memory
	Timing Timing

	IFetch cache.FetchEngine
	ITLB   *tlb.TLB
	DCache *cache.DataCache
	DTLB   *tlb.TLB

	Regs   [isa.NumRegs]uint32
	Flags  isa.Flags
	PC     uint32
	Halted bool

	Cycles uint64
	Instrs uint64
	counts []uint64

	// lastIndirect records that the previously executed instruction
	// redirected control through a register (RET), so the next fetch
	// target was not statically known — way-memoization cares.
	lastIndirect bool
}

// StackTop is where SP starts; the region below it backs stack frames.
const StackTop = 0x7fff_f000

// StackRegionBase bounds the stack scratch region from below; no
// workload's frames grow anywhere near this deep. Memory-image
// comparisons (sim.RunStats.MemHash) exclude everything from here up,
// because dead frames hold spilled return addresses — PC values that
// legitimately differ between code layouts.
const StackRegionBase = StackTop - 1<<20

// New builds a CPU over a linked program and memory image; the memory
// is populated with the program's data segment and the architectural
// state is reset.
func New(p *obj.Program, m *mem.Memory) *CPU {
	c := &CPU{Prog: p, Mem: m, Timing: DefaultTiming()}
	m.LoadImage(p.DataBase, p.Data)
	c.Reset()
	return c
}

// Reset re-initialises architectural state (but not memory or caches).
func (c *CPU) Reset() {
	c.Regs = [isa.NumRegs]uint32{}
	c.Regs[isa.SP] = StackTop
	c.Flags = isa.Flags{}
	c.PC = c.Prog.Entry
	c.Halted = false
	c.Cycles = 0
	c.Instrs = 0
	c.counts = make([]uint64, len(c.Prog.Code))
}

// Fault is a simulated machine fault (bad PC, misalignment, ...).
type Fault struct {
	PC     uint32
	Instr  isa.Instr
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("cpu: fault at pc=%#x (%v): %s", f.PC, f.Instr, f.Reason)
}

func faultAt(pc uint32, i isa.Instr, format string, args ...any) error {
	return &Fault{PC: pc, Instr: i, Reason: fmt.Sprintf(format, args...)}
}

// EventIndirect is the indirect-transfer flag of a fetch event: an
// instruction's fetch address, with bit 0 set when control arrived
// through a register (RET). Instruction addresses are 4-byte aligned,
// so the low two bits of an event word are free; EventAddr recovers
// the address.
const EventIndirect uint32 = 1

// EventAddr returns the fetch address of an event word.
func EventAddr(ev uint32) uint32 { return ev &^ 3 }

// Run executes until HALT or until maxInstrs instructions have
// retired, whichever comes first. Exceeding the budget is an error:
// benchmark programs are expected to terminate.
func (c *CPU) Run(maxInstrs uint64) (*Result, error) {
	return c.RunContext(context.Background(), maxInstrs)
}

// ctxCheckInstrs is how many instructions RunContext executes between
// cancellation checks. At simulator speeds a chunk is well under a
// millisecond, so cancellation is prompt while the per-chunk check
// stays invisible in profiles.
const ctxCheckInstrs = 50_000

// RunContext is Run with cooperative cancellation: the instruction
// loop checks ctx every ctxCheckInstrs retired instructions and
// returns ctx.Err() once the context is done. Architectural state is
// left exactly where the run stopped.
func (c *CPU) RunContext(ctx context.Context, maxInstrs uint64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for !c.Halted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := c.RunPieces(ctxCheckInstrs, maxInstrs, nil); err != nil {
			return nil, err
		}
	}
	return &Result{Instrs: c.Instrs, Cycles: c.Cycles, InstrCounts: c.counts}, nil
}

// RunInstrs executes at most budget further instructions, stopping
// early at HALT, and returns the number executed.
func (c *CPU) RunInstrs(budget uint64) (uint64, error) {
	return c.RunPieces(budget, ^uint64(0), nil)
}

// Step executes a single instruction, unless the CPU has halted.
func (c *CPU) Step() error {
	_, err := c.RunInstrs(1)
	return err
}

// DisableInstrCounts drops the per-instruction execution counters for
// runs that never build a profile (fetch-event production), removing a
// counter update from the per-instruction hot path. Reset re-enables
// them.
func (c *CPU) DisableInstrCounts() { c.counts = nil }

// RunPieces is the interpreter loop behind every other entry point. It
// executes at most budget further instructions, stopping early at HALT,
// and returns the number executed; exceeding maxInstrs with the program
// still running is an error. A non-nil piece receives the executed
// instructions' fetch events, in order, as maximal sequential pieces:
// piece(w, n) is the event word w (the address, EventIndirect set when
// control arrived through a register) followed by n-1 unflagged fetches
// of the next word each. A faulting instruction is no event. A fetch
// producer (sim.FetchSource) detaches the instruction side (IFetch,
// ITLB) and models it from the pieces, so Cycles then counts only the
// base and data-side cycles. Inside a sequential run the loop steps the
// Code index: it looks an address up only after a control transfer,
// where a piece ends. Detached hooks cost one test each.
func (c *CPU) RunPieces(budget, maxInstrs uint64, piece func(w, n uint32)) (uint64, error) {
	if c.Halted {
		return 0, nil
	}
	if c.Instrs >= maxInstrs {
		return 0, c.exhausted(maxInstrs)
	}
	code, counts, r := c.Prog.Code, c.counts, &c.Regs
	hooks := c.ITLB != nil || c.IFetch != nil
	pc, ind := c.PC, c.lastIndirect
	idx, ok := c.Prog.IndexOf(pc)
	if !ok {
		idx = len(code) // the fetch faults, if it happens
	}
	w := pc // the open piece's first event word
	if ind {
		w |= EventIndirect
	}
	start, cycles := c.Instrs, c.Cycles
	instrs, end := start, start+min(budget, maxInstrs-start)
	pstart := start // instrs before the open piece's first event
	var err error

loop:
	for instrs < end {
		if uint(idx) >= uint(len(code)) {
			err = &Fault{PC: pc, Reason: "instruction fetch outside image"}
			break
		}
		in := &code[idx]
		if counts != nil {
			counts[idx]++
		}

		stall := 0
		if hooks {
			stall = c.fetchStall(pc, ind)
		}
		jump := false
		var next uint32

		switch in.Op {
		case isa.ADD:
			r[in.Rd] = r[in.Rn] + r[in.Rm]
		case isa.SUB:
			r[in.Rd] = r[in.Rn] - r[in.Rm]
		case isa.RSB:
			r[in.Rd] = r[in.Rm] - r[in.Rn]
		case isa.MUL:
			r[in.Rd] = r[in.Rn] * r[in.Rm]
			stall += c.Timing.MulExtraCycles
		case isa.MLA:
			r[in.Rd] = r[in.Rn]*r[in.Rm] + r[in.Rd]
			stall += c.Timing.MulExtraCycles
		case isa.AND:
			r[in.Rd] = r[in.Rn] & r[in.Rm]
		case isa.ORR:
			r[in.Rd] = r[in.Rn] | r[in.Rm]
		case isa.EOR:
			r[in.Rd] = r[in.Rn] ^ r[in.Rm]
		case isa.BIC:
			r[in.Rd] = r[in.Rn] &^ r[in.Rm]
		case isa.LSL:
			r[in.Rd] = r[in.Rn] << (r[in.Rm] & 31)
		case isa.LSR:
			r[in.Rd] = r[in.Rn] >> (r[in.Rm] & 31)
		case isa.ASR:
			r[in.Rd] = uint32(int32(r[in.Rn]) >> (r[in.Rm] & 31))
		case isa.ROR:
			s := r[in.Rm] & 31
			r[in.Rd] = r[in.Rn]>>s | r[in.Rn]<<(32-s)

		case isa.ADDI:
			r[in.Rd] = r[in.Rn] + uint32(in.Imm)
		case isa.SUBI:
			r[in.Rd] = r[in.Rn] - uint32(in.Imm)
		case isa.ANDI:
			r[in.Rd] = r[in.Rn] & uint32(in.Imm)
		case isa.ORRI:
			r[in.Rd] = r[in.Rn] | uint32(in.Imm)
		case isa.EORI:
			r[in.Rd] = r[in.Rn] ^ uint32(in.Imm)
		case isa.LSLI:
			r[in.Rd] = r[in.Rn] << (uint32(in.Imm) & 31)
		case isa.LSRI:
			r[in.Rd] = r[in.Rn] >> (uint32(in.Imm) & 31)
		case isa.ASRI:
			r[in.Rd] = uint32(int32(r[in.Rn]) >> (uint32(in.Imm) & 31))

		case isa.MOV:
			r[in.Rd] = r[in.Rm]
		case isa.MVN:
			r[in.Rd] = ^r[in.Rm]
		case isa.MOVW:
			r[in.Rd] = uint32(in.Imm) & 0xffff
		case isa.MOVT:
			r[in.Rd] = r[in.Rd]&0xffff | uint32(in.Imm)<<16

		case isa.CMP:
			c.Flags = subFlags(r[in.Rn], r[in.Rm])
		case isa.CMPI:
			c.Flags = subFlags(r[in.Rn], uint32(in.Imm))
		case isa.TST:
			v := r[in.Rn] & r[in.Rm]
			c.Flags = isa.Flags{N: int32(v) < 0, Z: v == 0}

		case isa.LDR, isa.LDRB, isa.LDRX:
			addr := r[in.Rn]
			if in.Op == isa.LDRX {
				addr += r[in.Rm]
			} else {
				addr += uint32(in.Imm)
			}
			if in.Op != isa.LDRB && addr%4 != 0 {
				err = faultAt(pc, *in, "misaligned load at %#x", addr)
				break loop
			}
			stall += c.dataAccess(addr, false)
			if in.Op == isa.LDRB {
				r[in.Rd] = uint32(c.Mem.Read8(addr))
			} else {
				r[in.Rd] = c.Mem.Read32(addr)
			}

		case isa.STR, isa.STRB, isa.STRX:
			addr := r[in.Rn]
			if in.Op == isa.STRX {
				addr += r[in.Rm]
			} else {
				addr += uint32(in.Imm)
			}
			if in.Op != isa.STRB && addr%4 != 0 {
				err = faultAt(pc, *in, "misaligned store at %#x", addr)
				break loop
			}
			stall += c.dataAccess(addr, true)
			if in.Op == isa.STRB {
				c.Mem.Write8(addr, byte(r[in.Rd]))
			} else {
				c.Mem.Write32(addr, r[in.Rd])
			}

		case isa.B:
			if in.Cond.Eval(c.Flags) {
				next, jump = uint32(int64(pc)+isa.InstrBytes+int64(in.Imm)*isa.InstrBytes), true
				stall += c.Timing.BranchTakenPenalty
			}
		case isa.BL:
			r[isa.LR] = pc + isa.InstrBytes
			next, jump = uint32(int64(pc)+isa.InstrBytes+int64(in.Imm)*isa.InstrBytes), true
			stall += c.Timing.BranchTakenPenalty
		case isa.RET:
			next, jump = r[isa.LR], true
			stall += c.Timing.BranchTakenPenalty

		case isa.NOP:
		case isa.HALT:
			c.Halted = true
			end = instrs + 1

		default:
			err = faultAt(pc, *in, "unimplemented operation")
			break loop
		}
		instrs++
		cycles += uint64(1 + stall)

		if !jump {
			pc += isa.InstrBytes
			idx++
			ind = false
			continue
		}
		ind = in.Op == isa.RET
		if next != pc+isa.InstrBytes || ind { // a control transfer ends the piece
			if piece != nil {
				piece(w, uint32(instrs-pstart))
			}
			pstart, w = instrs, next
			if ind {
				w |= EventIndirect
			}
		}
		pc = next
		if idx, ok = c.Prog.IndexOf(pc); !ok {
			idx = len(code)
		}
	}

	if piece != nil && instrs > pstart {
		piece(w, uint32(instrs-pstart))
	}
	if err != nil && idx < len(code) {
		instrs++ // an instruction that faults retires, but is no event
	}
	c.PC, c.lastIndirect, c.Instrs, c.Cycles = pc, ind, instrs, cycles
	if err == nil && !c.Halted && instrs-start < budget {
		err = c.exhausted(maxInstrs)
	}
	return instrs - start, err
}

func (c *CPU) exhausted(maxInstrs uint64) error {
	return fmt.Errorf("cpu: instruction budget %d exhausted at pc=%#x", maxInstrs, c.PC)
}

// fetchStall drives the attached instruction-side hooks for the fetch
// of pc and returns their stall cycles.
func (c *CPU) fetchStall(pc uint32, indirect bool) int {
	stall := 0
	if c.ITLB != nil {
		if miss, _ := c.ITLB.Lookup(pc); miss {
			stall += c.Timing.TLBWalkPenalty
		}
	}
	if c.IFetch != nil {
		fr := c.IFetch.Fetch(pc, indirect)
		if fr.Filled {
			stall += c.Mem.ReadLine(pc, c.IFetch.Cache().Cfg.LineBytes)
		}
		if fr.ExtraAccess {
			stall += c.Timing.HintExtraPenalty
		}
	}
	return stall
}

// dataAccess drives the D-TLB and D-cache for a load or store and
// returns the stall cycles.
func (c *CPU) dataAccess(addr uint32, write bool) int {
	stall := 0
	if c.DTLB != nil {
		if miss, _ := c.DTLB.Lookup(addr); miss {
			stall += c.Timing.TLBWalkPenalty
		}
	}
	if c.DCache != nil {
		var res cache.AccessResult
		if write {
			res = c.DCache.Write(addr)
		} else {
			res = c.DCache.Read(addr)
		}
		line := c.DCache.Cache().Cfg.LineBytes
		if res.Filled {
			stall += c.Mem.ReadLine(addr, line)
		}
		if res.Writeback {
			stall += c.Mem.WriteBack(addr, line)
		}
	}
	return stall
}

// subFlags computes the NZCV flags of a-b, ARM style (C is the NOT of
// the borrow).
func subFlags(a, b uint32) isa.Flags {
	d := a - b
	return isa.Flags{
		N: int32(d) < 0,
		Z: d == 0,
		C: a >= b,
		V: (a^b)&(a^d)&0x8000_0000 != 0,
	}
}
