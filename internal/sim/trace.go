package sim

// Fetch-trace recording and replay. Every cell of one fetch stream —
// a program under one producer-side configuration — sees the same
// event sequence, the same analysis of it and the same producer
// outcome, so a pass can record them once and later passes can
// evaluate further models against the recording instead of
// re-executing the CPU, D-cache, D-TLB, I-TLB and memory image or
// re-analysing the stream. RecordMulti and ReplayMulti are RunMulti
// with a recording and a replaying stream source, and RelocateMulti
// (reloc.go) replays a recording relocated onto another layout of the
// same program; all of them share runMulti's consume, alias and
// finalize code.
//
// A recording holds the events, each chunk's repeats at the recording
// pass's run-segmentation granule, and the producer outcome, the
// reference I-TLB's stats included. Runs are not stored: a replay
// cuts them from each decoded segment in a few steps, and at any
// granule. At the recorded granule it re-emits the stored repeats; at
// another it finds its own.
//
// Encoding. Fetch streams are long runs of sequential PCs broken by
// control transfers, so the stream is stored as segments: one segment
// is a first event plus a count of events that each follow the
// previous one at +4 with no flag bits. A segment is two uvarints —
// the zigzagged word distance of its first address from the end of
// the previous segment with the first event's two flag bits below it,
// then the length minus one. A chunk's repeats are a uvarint count,
// then three uvarints per repeat: the runs from the previous repeat's
// End (or the chunk start) to its Probe, its period minus one, and its
// copies after the probe minus one. Segments and repeats are two byte
// streams, each compressed with compress/flate at BestSpeed in blocks
// of up to traceBlockBytes, each block an independent flate stream, so
// concurrent recordings can share one writer.

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/mem"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// StreamConfig is the producer-side half of a Config: together with
// the program it determines the fetch stream and the producer outcome
// of a pass, the reference I-TLB's included. Two Configs with equal
// StreamConfigs may share a trace.
type StreamConfig struct {
	Mem       mem.Config
	Timing    cpu.Timing
	DCache    cache.Config
	DTLB      tlb.Config
	ITLB      tlb.Config
	MaxInstrs uint64
}

// StreamConfigOf extracts the producer-side half of a Config.
func StreamConfigOf(c Config) StreamConfig {
	return StreamConfig{Mem: c.Mem, Timing: c.Timing, DCache: c.DCache, DTLB: c.DTLB, ITLB: c.ITLB, MaxInstrs: c.MaxInstrs}
}

// producerOutcome is what a complete producer pass hands to finalize:
// everything a RunStats reads that the instruction side does not own.
type producerOutcome struct {
	instrs    uint64
	cycles    uint64
	dstats    cache.Stats
	dtlbStats tlb.Stats
	itlbStats tlb.Stats // the reference I-TLB's
	memStats  mem.Stats
	checksum  uint32
	memHash   uint64
}

// FetchTrace is the immutable, compressed record of one complete
// producer pass: its fetch-event stream, the stream's repeats and its
// producer outcome. It is safe for concurrent replay.
type FetchTrace struct {
	prog   *obj.Program
	stream StreamConfig
	out    producerOutcome
	events uint64
	block  int    // the run-segmentation granule reps were found at
	segs   []byte // flate-compressed segments
	reps   []byte // flate-compressed repeats, one record per chunk
}

// Bytes is the trace's compressed size, segments and repeats.
func (t *FetchTrace) Bytes() int { return len(t.segs) + len(t.reps) }

// Instrs is the number of events (retired instructions) recorded.
func (t *FetchTrace) Instrs() uint64 { return t.events }

// InstrCounts returns how many times the recorded pass executed each
// instruction of its program, indexed like the program's Code: the
// counts a profiling run collects (cpu.Result.InstrCounts), read off
// the recording instead of executing the program again.
func (t *FetchTrace) InstrCounts() ([]uint64, error) {
	r := &TraceSource{t: t}
	r.segs.open(t.segs, traceReplayWindow)
	// Each segment adds one to a range of instructions: mark where the
	// ranges start and end, then sum the marks up.
	marks := make([]int64, len(t.prog.Code)+1)
	for left := t.events; left > 0; {
		addr, n, _, err := r.decodeSegment()
		if err != nil {
			return nil, err
		}
		i, ok := t.prog.IndexOf(addr)
		if !ok || uint64(n) > left || i+int(n) > len(t.prog.Code) {
			return nil, errCorruptTrace
		}
		marks[i]++
		marks[i+int(n)]--
		left -= uint64(n)
	}
	counts := make([]uint64, len(t.prog.Code))
	sum := int64(0)
	for i := range counts {
		sum += marks[i]
		counts[i] = uint64(sum)
	}
	return counts, nil
}

// matches reports whether t was recorded from prog under base's
// producer-side configuration, i.e. whether ReplayMulti accepts it.
func (t *FetchTrace) matches(prog *obj.Program, base Config) bool {
	return t.prog == prog && t.stream == StreamConfigOf(base)
}

// traceMaxBytes caps one recording: a stream whose compressed trace
// passes it is abandoned mid-pass and never replayed. Every
// benchmark's reference stream is far below it (all 46 together take
// about 0.75 MB).
const traceMaxBytes = 4 << 20

// RecordMulti is RunMulti that also records the pass's fetch stream.
// The trace is nil when the pass recorded nothing reusable: no model
// was live, the producer did not run to completion (a whole-pass
// error, or every model failed first) or the compressed stream grew
// past traceMaxBytes.
func RecordMulti(ctx context.Context, prog *obj.Program, base Config, models []ModelSpec) ([]*ModelResult, *FetchTrace, error) {
	return recordMulti(ctx, prog, base, models, traceMaxBytes, func(block int) (streamSource, error) {
		return NewFetchSource(prog, base, block)
	})
}

// recordMulti is runMulti over the source open returns, recording the
// stream it passes on as prog's under a given per-recording byte cap.
func recordMulti(ctx context.Context, prog *obj.Program, base Config, models []ModelSpec, maxBytes int, open func(block int) (streamSource, error)) ([]*ModelResult, *FetchTrace, error) {
	var rec *traceRecorder
	res, err := runMulti(ctx, prog, base, models, func(block int) (streamSource, error) {
		src, err := open(block)
		if err != nil {
			return nil, err
		}
		rec = newTraceRecorder(src, prog, StreamConfigOf(base), block, maxBytes)
		return rec, nil
	})
	if rec == nil || err != nil {
		return res, nil, err
	}
	return res, rec.trace, nil
}

// ReplayMulti evaluates models against a recorded trace without
// executing the program: results are bit-identical to RunMulti's for
// the same program, base configuration and models. The trace must
// have been recorded under base's producer-side fields (StreamConfig,
// the I-TLB included), from prog or from another layout of prog's
// obj.Unit, in which case it is replayed relocated onto prog
// (NewRelocSource); any other trace is rejected. Cancellation is
// checked once per chunk.
func ReplayMulti(ctx context.Context, trace *FetchTrace, prog *obj.Program, base Config, models []ModelSpec) ([]*ModelResult, error) {
	if trace.matches(prog, base) {
		return runMulti(ctx, prog, base, models, func(block int) (streamSource, error) {
			return NewTraceSource(trace, block)
		})
	}
	rel, err := relocationFor(trace, prog, base)
	if err != nil {
		return nil, err
	}
	return runMulti(ctx, prog, base, models, func(block int) (streamSource, error) {
		return newRelocSource(trace, rel, block)
	})
}

// traceBlockBytes is the raw bytes a recording buffers, per stream,
// before compressing them as one block.
const traceBlockBytes = 64 << 10

// traceReplayWindow and repReplayWindow are a replay's views of the
// inflated segment and repeat bytes; the repeats are far sparser.
const (
	traceReplayWindow = 32 << 10
	repReplayWindow   = 4 << 10
)

// traceFlate is the one flate writer every recording compresses its
// blocks with, a block at a time: a writer holds about 1 MB of state,
// too much to keep one per concurrent recording, while compressing a
// block takes well under a millisecond.
var traceFlate struct {
	sync.Mutex
	w *flate.Writer
}

// flateBlocks is one byte stream of a recording: raw bytes buffered,
// then compressed as independent flate blocks.
type flateBlocks struct {
	out bytes.Buffer // compressed blocks
	raw []byte       // bytes not yet compressed
}

// compress appends the buffered bytes to the output as one flate block.
func (b *flateBlocks) compress() error {
	traceFlate.Lock()
	if traceFlate.w == nil {
		traceFlate.w, _ = flate.NewWriter(nil, flate.BestSpeed) // BestSpeed is a valid level
	}
	fw := traceFlate.w
	fw.Reset(&b.out)
	_, werr := fw.Write(b.raw)
	cerr := fw.Close()
	fw.Reset(nil) // drop the reference to b.out
	traceFlate.Unlock()
	b.raw = b.raw[:0]
	return errors.Join(werr, cerr)
}

// traceRecorder wraps a live source, encoding every chunk it passes on.
// Recording stops for good (the trace stays nil) once the compressed
// output passes maxBytes or the source reports an error.
type traceRecorder struct {
	src      streamSource
	prog     *obj.Program
	stream   StreamConfig
	block    int
	maxBytes int

	segs, reps flateBlocks
	recording  bool
	events     uint64
	trace      *FetchTrace

	// The open segment: its first event and the event that would
	// extend it (noEvent before the first segment), and where the
	// previous segment ended.
	segFirst, segNext, prevEnd uint32
}

// noEvent is never an event word: addresses are 4-byte aligned and
// only bit 0 carries a flag.
const noEvent = ^uint32(0)

// newTraceRecorder records src, a source of prog's stream under stream
// whose chunks are segmented at block bytes.
func newTraceRecorder(src streamSource, prog *obj.Program, stream StreamConfig, block, maxBytes int) *traceRecorder {
	r := &traceRecorder{src: src, prog: prog, stream: stream, block: block, maxBytes: maxBytes,
		recording: true, segNext: noEvent}
	r.segs.raw = make([]byte, 0, traceBlockBytes+2*binary.MaxVarintLen64)
	return r
}

func (r *traceRecorder) NextChunk(ctx context.Context) (*FetchChunk, error) {
	ch, err := r.src.NextChunk(ctx)
	if !r.recording {
		return ch, err
	}
	if err != nil {
		r.abandon()
		return nil, err
	}
	if ch == nil {
		r.seal()
		return nil, nil
	}
	r.encodeReps(ch)
	if r.recording {
		r.encode(ch.Events)
	}
	return ch, nil
}

func (r *traceRecorder) outcome() producerOutcome { return r.src.outcome() }

// encodeReps appends one chunk's repeat record.
func (r *traceRecorder) encodeReps(ch *FetchChunk) {
	raw := binary.AppendUvarint(r.reps.raw, uint64(len(ch.Reps)))
	end := uint32(0)
	for _, rp := range ch.Reps {
		p := rp.Skip - rp.Probe
		raw = binary.AppendUvarint(raw, uint64(rp.Probe-end))
		raw = binary.AppendUvarint(raw, uint64(p-1))
		raw = binary.AppendUvarint(raw, uint64((rp.End-rp.Skip)/p-1))
		end = rp.End
	}
	r.reps.raw = raw
	if len(raw) >= traceBlockBytes {
		r.compress(&r.reps)
	}
}

// encode appends one chunk's events to the segment stream. The open
// segment carries over chunk boundaries.
func (r *traceRecorder) encode(events []uint32) {
	r.events += uint64(len(events))
	next := r.segNext
	for _, ev := range events {
		if ev == next {
			next += 4
			continue
		}
		if next != noEvent {
			r.segNext = next
			if !r.closeSegment() {
				return
			}
		}
		r.segFirst, next = ev, cpu.EventAddr(ev)+4
	}
	r.segNext = next
}

// closeSegment encodes the open segment, compressing the block once it
// is full. It reports whether recording goes on.
func (r *traceRecorder) closeSegment() bool {
	addr := cpu.EventAddr(r.segFirst)
	delta := int32(addr-r.prevEnd) >> 2
	zz := uint64(uint32(delta<<1) ^ uint32(delta>>31))
	r.segs.raw = binary.AppendUvarint(r.segs.raw, zz<<2|uint64(r.segFirst&3))
	r.segs.raw = binary.AppendUvarint(r.segs.raw, uint64((r.segNext-addr)>>2-1))
	r.prevEnd = r.segNext
	if len(r.segs.raw) >= traceBlockBytes {
		r.compress(&r.segs)
	}
	return r.recording
}

// compress compresses one of the recording's streams, abandoning the
// recording once the two outputs together pass maxBytes.
func (r *traceRecorder) compress(b *flateBlocks) {
	if err := b.compress(); err != nil || r.segs.out.Len()+r.reps.out.Len() > r.maxBytes {
		r.abandon() // writing to a bytes.Buffer cannot fail
	}
}

// seal compresses the last segment and repeats and freezes the trace.
func (r *traceRecorder) seal() {
	if r.segNext != noEvent && !r.closeSegment() {
		return
	}
	for _, b := range []*flateBlocks{&r.segs, &r.reps} {
		if r.recording && len(b.raw) > 0 {
			r.compress(b)
		}
	}
	if !r.recording {
		return
	}
	r.trace = &FetchTrace{
		prog:   r.prog,
		stream: r.stream,
		out:    r.src.outcome(),
		events: r.events,
		block:  r.block,
		segs:   bytes.Clone(r.segs.out.Bytes()),
		reps:   bytes.Clone(r.reps.out.Bytes()),
	}
	r.abandon()
}

// abandon stops recording and drops its buffers.
func (r *traceRecorder) abandon() {
	r.recording = false
	r.segs, r.reps = flateBlocks{}, flateBlocks{}
}

// TraceSource re-emits a recorded trace in exactly the chunks a live
// FetchSource produces for the same stream, runs and repeats included:
// the replaying counterpart of FetchSource. Built by NewRelocSource it
// re-emits the trace relocated onto another layout instead, in the
// chunks a FetchSource over that layout produces.
type TraceSource struct {
	t        *FetchTrace
	blockNeg uint32
	left     uint64        // events still to emit
	segs     inflater      // opened with the first chunk, like reps
	reps     inflater      // read only at the recorded granule
	find     *repeatFinder // at any other granule, or relocating, finds the repeats
	events   []uint32
	runs     []FetchRun
	repBuf   []FetchRep

	segNext, segLeft, prevEnd uint32
	segFlags                  uint32 // flag bits of the segment's first event, not yet emitted

	// Relocating only: the address map, the target layout's reference
	// I-TLB, and what is left of the recorded segment being mapped.
	rel                       *relocation
	itlb                      refITLB
	srcNext, srcLeft, srcFlag uint32
}

// NewTraceSource builds a replaying stream source over t. blockBytes
// is the run-segmentation granule, as for NewFetchSource.
func NewTraceSource(t *FetchTrace, blockBytes int) (*TraceSource, error) {
	if err := checkBlockBytes(blockBytes, t.stream.ITLB); err != nil {
		return nil, err
	}
	r := &TraceSource{t: t, blockNeg: uint32(blockBytes - 1), left: t.events}
	if blockBytes != t.block {
		r.find = new(repeatFinder)
	}
	return r, nil
}

var errCorruptTrace = errors.New("sim: corrupt fetch trace")

// NextChunk returns the next batch of recorded events, or (nil, nil)
// at the end of the trace. The returned chunk's slices are only valid
// until the next call.
func (r *TraceSource) NextChunk(ctx context.Context) (*FetchChunk, error) {
	if r.left == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.events == nil {
		r.segs.open(r.t.segs, traceReplayWindow)
		if r.find == nil {
			r.reps.open(r.t.reps, repReplayWindow)
		}
		r.events = make([]uint32, fetchChunkEvents)
	}
	n := fetchChunkEvents
	if r.left < uint64(n) {
		n = int(r.left)
	}
	ev := r.events[:n]
	runs := r.runs[:0]
	blockNeg := r.blockNeg
	lastBlock := noEvent // the open run's block; noEvent is no block
	addr, left, flags := r.segNext, r.segLeft, r.segFlags
	for i := 0; i < n; {
		if left == 0 {
			var err error
			if r.rel == nil {
				addr, left, flags, err = r.decodeSegment()
			} else {
				addr, left, flags, err = r.relocatedSegment()
			}
			if err != nil {
				return nil, err
			}
		}
		piece := ev[i : i+int(min(left, uint32(n-i)))]
		for j := range piece {
			piece[j] = addr + 4*uint32(j)
		}
		piece[0] |= flags
		flags = 0
		// The piece's events are sequential, so its runs break only at
		// block boundaries, and its first event extends the open run
		// when it stays in that run's block (a short jump or a flagged
		// fall-through).
		for at, rest := uint32(i), uint32(len(piece)); rest > 0; {
			block := addr &^ blockNeg
			m := min((block+blockNeg-addr)>>2+1, rest) // events to the end of the block
			if block == lastBlock {
				runs[len(runs)-1].N += m
			} else {
				runs = append(runs, FetchRun{Start: at, N: m})
				lastBlock = block
			}
			at, rest, addr = at+m, rest-m, addr+4*m
		}
		i += len(piece)
		left -= uint32(len(piece))
	}
	r.segNext, r.segLeft, r.segFlags = addr, left, flags
	r.left -= uint64(n)
	r.runs = runs
	ch := &FetchChunk{Events: ev, Runs: runs}
	if r.find != nil {
		ch.Reps = r.find.find(ch)
		if r.rel != nil {
			r.itlb.translate(ch)
		}
		return ch, nil
	}
	reps, err := r.nextReps(len(runs))
	if err != nil {
		return nil, err
	}
	ch.Reps = reps
	return ch, nil
}

// relocatedSegment returns the next segment a relocating source emits:
// the next piece of the recorded segment being mapped that stays
// sequential in the target layout.
func (r *TraceSource) relocatedSegment() (addr, n, flags uint32, err error) {
	if r.srcLeft == 0 {
		if r.srcNext, r.srcLeft, r.srcFlag, err = r.decodeSegment(); err != nil {
			return 0, 0, 0, err
		}
	}
	addr, n, ok := r.rel.piece(r.srcNext, r.srcLeft)
	if !ok {
		return 0, 0, 0, errCorruptTrace
	}
	flags = r.srcFlag
	r.srcNext, r.srcLeft, r.srcFlag = r.srcNext+4*n, r.srcLeft-n, 0
	return addr, n, flags, nil
}

// decodeSegment decodes one segment header: the segment's first
// address, its length and the first event's flag bits.
func (r *TraceSource) decodeSegment() (addr, n, flags uint32, err error) {
	in := &r.segs
	if err := in.need(2 * binary.MaxVarintLen64); err != nil {
		return 0, 0, 0, err
	}
	win := in.win[in.pos:in.end]
	head, k := binary.Uvarint(win)
	if k <= 0 {
		return 0, 0, 0, errCorruptTrace
	}
	length, k2 := binary.Uvarint(win[k:])
	if k2 <= 0 || length >= 1<<32-1 {
		return 0, 0, 0, errCorruptTrace
	}
	in.pos += k + k2
	zz := uint32(head >> 2)
	delta := int32(zz>>1) ^ -int32(zz&1)
	addr = r.prevEnd + uint32(delta)<<2
	n = uint32(length) + 1
	r.prevEnd = addr + 4*n
	return addr, n, uint32(head & 3), nil
}

// nextReps decodes one chunk's repeat record, checking that it fits
// the chunk's nRuns runs; nil when the chunk has none.
func (r *TraceSource) nextReps(nRuns int) ([]FetchRep, error) {
	count, err := r.reps.uvarint()
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if count > uint64(nRuns) {
		return nil, errCorruptTrace
	}
	reps := r.repBuf[:0]
	end := uint64(0)
	for ; count > 0; count-- {
		var v [3]uint64
		for j := range v {
			if v[j], err = r.reps.uvarint(); err != nil {
				return nil, err
			}
		}
		gap, p, copies := v[0], v[1]+1, v[2]+1
		if gap > uint64(nRuns) || p > repMaxPeriod || copies > uint64(nRuns) {
			return nil, errCorruptTrace
		}
		probe := end + gap
		end = probe + p + p*copies
		if end > uint64(nRuns) {
			return nil, errCorruptTrace
		}
		reps = append(reps, FetchRep{Probe: uint32(probe), Skip: uint32(probe + p), End: uint32(end)})
	}
	r.repBuf = reps
	return reps, nil
}

// outcome is the recorded producer outcome; relocated, with the
// target layout's own reference I-TLB stats.
func (r *TraceSource) outcome() producerOutcome {
	out := r.t.out
	if r.rel != nil {
		out.itlbStats = r.itlb.tlb.Stats
	}
	return out
}

// inflater decodes uvarints from a sequence of independent flate
// blocks through a window of inflated bytes.
type inflater struct {
	src      *bytes.Reader // the encoded blocks
	fr       io.ReadCloser
	win      []byte
	pos, end int // undecoded bytes in win
	eof      bool
}

func (in *inflater) open(blocks []byte, window int) {
	in.src = bytes.NewReader(blocks)
	in.fr = flate.NewReader(in.src)
	in.win = make([]byte, window)
}

// need refills the window when fewer than n undecoded bytes are left
// in it and more are to come.
func (in *inflater) need(n int) error {
	if in.end-in.pos >= n || in.eof {
		return nil
	}
	return in.refill()
}

// uvarint decodes the next uvarint.
func (in *inflater) uvarint() (uint64, error) {
	if err := in.need(binary.MaxVarintLen64); err != nil {
		return 0, err
	}
	v, k := binary.Uvarint(in.win[in.pos:in.end])
	if k <= 0 {
		return 0, errCorruptTrace
	}
	in.pos += k
	return v, nil
}

// refill moves the undecoded bytes to the front of the window and
// inflates behind them, moving on to the next block at the end of
// each one.
func (in *inflater) refill() error {
	win, fr := in.win, in.fr
	n := copy(win, win[in.pos:in.end])
	for n < len(win) {
		m, err := fr.Read(win[n:])
		n += m
		if err == io.EOF {
			if in.src.Len() == 0 {
				in.eof = true
				break
			}
			err = fr.(flate.Resetter).Reset(in.src, nil)
		}
		if err != nil {
			return fmt.Errorf("%w: %v", errCorruptTrace, err)
		}
	}
	in.pos, in.end = 0, n
	return nil
}
