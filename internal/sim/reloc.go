package sim

// Trace relocation. The layout pass only permutes basic blocks: obj.Link
// keeps every fall-through and adds no instruction, so every layout of
// one obj.Unit retires the same instructions in the same order, with
// the same data-side traffic, and only their addresses differ. A fetch
// trace recorded on one layout therefore yields the stream of any other
// by mapping each event's address through the two layouts' block
// placements. ReplayMulti evaluates models against that mapped stream
// without executing the program again: the relocating source cuts its
// own runs, finds its own repeats and drives a fresh reference I-TLB,
// so the analysis is the target layout's own, and finalize gets the
// recorded producer outcome with the new I-TLB stats in it.
//
// The mapping is exact only between layouts of one unit whose program
// never reads its own code addresses as data. The first is checked
// (newRelocation); the second holds for every program the repository
// builds, and internal/check's relocation leg holds every benchmark and
// every fuzzed program to it against live execution.

import (
	"bytes"
	"errors"

	"wayplace/internal/isa"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// relocation maps the instruction addresses of one layout of a unit
// onto another's.
type relocation struct {
	srcBase uint32
	// to is the target address of each source instruction, span the
	// number of instructions from it on that stay sequential in both
	// layouts (up to the end of its block, or further where the
	// following blocks are adjacent in both); both are indexed like the
	// source program's Code.
	to, span []uint32
}

// errOtherUnit rejects a relocation between programs that obj.Link did
// not build from the same obj.Unit.
var errOtherUnit = errors.New("sim: cannot relocate a fetch trace between programs of different units")

// newRelocation builds the address map from src's layout to dst's. Both
// programs must come from the same obj.Unit: the same blocks in their
// Placed lists and the same data image.
func newRelocation(src, dst *obj.Program) (*relocation, error) {
	if len(src.Placed) != len(dst.Placed) || len(src.Code) != len(dst.Code) ||
		src.DataBase != dst.DataBase || !bytes.Equal(src.Data, dst.Data) {
		return nil, errOtherUnit
	}
	at := make(map[*obj.Block]uint32, len(dst.Placed))
	for _, p := range dst.Placed {
		at[p.Block] = p.Addr
	}
	r := &relocation{srcBase: src.Base, to: make([]uint32, len(src.Code)), span: make([]uint32, len(src.Code))}
	i := 0
	for _, p := range src.Placed {
		addr, ok := at[p.Block]
		if !ok || p.Addr != src.Base+uint32(i)*isa.InstrBytes {
			return nil, errOtherUnit
		}
		for range p.Block.Instrs {
			r.to[i] = addr
			addr += isa.InstrBytes
			i++
		}
	}
	for i := len(r.to) - 1; i >= 0; i-- {
		r.span[i] = 1
		if i+1 < len(r.to) && r.to[i+1] == r.to[i]+isa.InstrBytes {
			r.span[i] += r.span[i+1]
		}
	}
	return r, nil
}

// piece maps the first of left sequential source instructions from
// address src: its target address and how many of them follow it
// sequentially there too. ok is false when src is outside the source
// image.
func (r *relocation) piece(src, left uint32) (addr, n uint32, ok bool) {
	i := (src - r.srcBase) / isa.InstrBytes
	if src < r.srcBase || uint64(i) >= uint64(len(r.to)) {
		return 0, 0, false
	}
	return r.to[i], min(left, r.span[i]), true
}

// NewRelocSource builds a stream source that replays t relocated onto
// prog, another layout of the unit t was recorded from: the chunks a
// FetchSource over prog produces, segments, runs and repeats included
// but no event words, with a reference I-TLB of its own. blockBytes is
// the run-segmentation granule, as for NewFetchSource.
func NewRelocSource(t *FetchTrace, prog *obj.Program, blockBytes int) (*TraceSource, error) {
	rel, err := newRelocation(t.prog, prog)
	if err != nil {
		return nil, err
	}
	return newRelocSource(t, rel, blockBytes)
}

// newRelocSource is NewRelocSource over a built address map.
func newRelocSource(t *FetchTrace, rel *relocation, blockBytes int) (*TraceSource, error) {
	src, err := NewTraceSource(t, blockBytes)
	if err != nil {
		return nil, err
	}
	itlb, err := tlb.New(t.stream.ITLB)
	if err != nil {
		return nil, err
	}
	src.rel, src.itlb = rel, refITLB{tlb: itlb, page: noPage}
	if src.find == nil {
		src.find = new(repeatFinder)
	}
	return src, nil
}
