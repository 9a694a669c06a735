package sim

// Fetch-trace recording and replay. Every cell of one fetch stream —
// a program under one producer-side configuration — sees the same
// event sequence and the same producer outcome, so a pass can record
// them once and later passes can evaluate further models against the
// recording instead of re-executing the CPU, D-cache, D-TLB and memory
// image. RecordMulti and ReplayMulti are RunMulti with a recording and
// a replaying stream source; all three share runMulti's consume, alias
// and finalize code.
//
// Encoding. Fetch streams are long runs of sequential PCs broken by
// control transfers, so the stream is stored as segments: one segment
// is a first event plus a count of events that each follow the
// previous one at +4 with no flag bits. A segment is two uvarints —
// the zigzagged word distance of its first address from the end of
// the previous segment with the first event's two flag bits below it,
// then the length minus one. The segment bytes are compressed with
// compress/flate at BestSpeed in blocks of up to traceBlockBytes, each
// block an independent flate stream, so concurrent recordings can share
// one writer.

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
// of a pass. Two Configs with equal StreamConfigs may share a trace.
type StreamConfig struct {
	Mem       mem.Config
	Timing    cpu.Timing
	DCache    cache.Config
	DTLB      tlb.Config
	MaxInstrs uint64
}

// StreamConfigOf extracts the producer-side half of a Config.
func StreamConfigOf(c Config) StreamConfig {
	return StreamConfig{Mem: c.Mem, Timing: c.Timing, DCache: c.DCache, DTLB: c.DTLB, MaxInstrs: c.MaxInstrs}
}

// producerOutcome is what a complete producer pass hands to finalize:
// everything a RunStats reads that the instruction side does not own.
type producerOutcome struct {
	instrs    uint64
	cycles    uint64
	dstats    cache.Stats
	dtlbStats tlb.Stats
	memStats  mem.Stats
	checksum  uint32
	memHash   uint64
}

// FetchTrace is the immutable, compressed record of one complete
// producer pass: its fetch-event stream and its producer outcome. It
// is safe for concurrent replay.
type FetchTrace struct {
	prog    *obj.Program
	stream  StreamConfig
	out     producerOutcome
	events  uint64
	encoded []byte // flate-compressed segments
}

// Bytes is the trace's compressed size.
func (t *FetchTrace) Bytes() int { return len(t.encoded) }

// Instrs is the number of events (retired instructions) recorded.
func (t *FetchTrace) Instrs() uint64 { return t.events }

// matches reports whether t was recorded from prog under base's
// producer-side configuration, i.e. whether ReplayMulti accepts it.
func (t *FetchTrace) matches(prog *obj.Program, base Config) bool {
	return t.prog == prog && t.stream == StreamConfigOf(base)
}

// traceMaxBytes caps one recording: a stream whose compressed trace
// passes it is abandoned mid-pass and never replayed. Every
// benchmark's reference stream is far below it (all 46 together take
// about 0.64 MB).
const traceMaxBytes = 4 << 20

// RecordMulti is RunMulti that also records the pass's fetch stream.
// The trace is nil when the pass recorded nothing reusable: no model
// was live, the producer did not run to completion (a whole-pass
// error, or every model failed first) or the compressed stream grew
// past traceMaxBytes.
func RecordMulti(ctx context.Context, prog *obj.Program, base Config, models []ModelSpec) ([]*ModelResult, *FetchTrace, error) {
	return recordMulti(ctx, prog, base, models, traceMaxBytes)
}

// recordMulti is RecordMulti under a given per-recording byte cap.
func recordMulti(ctx context.Context, prog *obj.Program, base Config, models []ModelSpec, maxBytes int) ([]*ModelResult, *FetchTrace, error) {
	var rec *traceRecorder
	res, err := runMulti(ctx, prog, base, models, func(block int) (streamSource, error) {
		src, err := NewFetchSource(prog, base, block)
		if err != nil {
			return nil, err
		}
		rec = newTraceRecorder(src, prog, base, maxBytes)
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
// have been recorded from prog under base's producer-side fields
// (StreamConfig); any other trace is rejected. Cancellation is
// checked once per chunk.
func ReplayMulti(ctx context.Context, trace *FetchTrace, prog *obj.Program, base Config, models []ModelSpec) ([]*ModelResult, error) {
	if !trace.matches(prog, base) {
		return nil, errors.New("sim: fetch trace was recorded for another program or producer configuration")
	}
	return runMulti(ctx, prog, base, models, func(block int) (streamSource, error) {
		return NewTraceSource(trace, block)
	})
}

// traceBlockBytes is the raw segment bytes a recording buffers before
// compressing them as one block.
const traceBlockBytes = 64 << 10

// traceReplayWindow is the decoder's view of the inflated segment
// bytes; refills keep at least two maximal varints ahead.
const traceReplayWindow = 32 << 10

// traceFlate is the one flate writer every recording compresses its
// blocks with, a block at a time: a writer holds about 1 MB of state,
// too much to keep one per concurrent recording, while compressing a
// block takes well under a millisecond.
var traceFlate struct {
	sync.Mutex
	w *flate.Writer
}

// traceRecorder wraps a live source, encoding every chunk it passes on.
// Recording stops for good (the trace stays nil) once the compressed
// output passes maxBytes or the source reports an error.
type traceRecorder struct {
	*FetchSource
	prog     *obj.Program
	stream   StreamConfig
	maxBytes int

	out    bytes.Buffer // compressed blocks
	raw    []byte       // segment bytes not yet compressed; nil once sealed or abandoned
	events uint64
	trace  *FetchTrace

	// The open segment: its first event and the event that would
	// extend it (noEvent before the first segment), and where the
	// previous segment ended.
	segFirst, segNext, prevEnd uint32
}

// noEvent is never an event word: addresses are 4-byte aligned and
// only bit 0 carries a flag.
const noEvent = ^uint32(0)

func newTraceRecorder(src *FetchSource, prog *obj.Program, base Config, maxBytes int) *traceRecorder {
	return &traceRecorder{FetchSource: src, prog: prog, stream: StreamConfigOf(base), maxBytes: maxBytes,
		raw: make([]byte, 0, traceBlockBytes+2*binary.MaxVarintLen64), segNext: noEvent}
}

func (r *traceRecorder) NextChunk(ctx context.Context) (*FetchChunk, error) {
	ch, err := r.FetchSource.NextChunk(ctx)
	if r.raw == nil {
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
	r.encode(ch.Events)
	return ch, nil
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
	r.raw = binary.AppendUvarint(r.raw, zz<<2|uint64(r.segFirst&3))
	r.raw = binary.AppendUvarint(r.raw, uint64((r.segNext-addr)>>2-1))
	r.prevEnd = r.segNext
	if len(r.raw) >= traceBlockBytes {
		r.compress()
	}
	return r.raw != nil
}

// compress appends the buffered segment bytes to the output as one
// flate block, abandoning the recording once the output passes
// maxBytes.
func (r *traceRecorder) compress() {
	traceFlate.Lock()
	if traceFlate.w == nil {
		traceFlate.w, _ = flate.NewWriter(nil, flate.BestSpeed) // BestSpeed is a valid level
	}
	fw := traceFlate.w
	fw.Reset(&r.out)
	_, werr := fw.Write(r.raw)
	cerr := fw.Close()
	fw.Reset(nil) // drop the reference to r.out
	traceFlate.Unlock()
	r.raw = r.raw[:0]
	if werr != nil || cerr != nil || r.out.Len() > r.maxBytes {
		r.abandon() // writing to a bytes.Buffer cannot fail
	}
}

// seal compresses the last segment and freezes the trace.
func (r *traceRecorder) seal() {
	if r.segNext != noEvent && !r.closeSegment() {
		return
	}
	if len(r.raw) > 0 {
		r.compress()
	}
	if r.raw == nil {
		return
	}
	r.trace = &FetchTrace{
		prog:    r.prog,
		stream:  r.stream,
		out:     r.FetchSource.outcome(),
		events:  r.events,
		encoded: bytes.Clone(r.out.Bytes()),
	}
	r.abandon()
}

// abandon stops recording and drops its buffers.
func (r *traceRecorder) abandon() {
	r.out = bytes.Buffer{}
	r.raw = nil
}

// TraceSource re-emits a recorded trace in exactly the chunks a live
// FetchSource produces for the same stream: the replaying counterpart
// of FetchSource.
type TraceSource struct {
	t        *FetchTrace
	blockNeg uint32
	left     uint64        // events still to emit
	src      *bytes.Reader // the encoded blocks
	fr       io.ReadCloser // nil before the first chunk
	win      []byte        // inflated segment bytes
	events   []uint32
	runs     []FetchRun

	pos, end int // undecoded bytes in win
	eof      bool

	segNext, segLeft, prevEnd uint32
	segFlags                  uint32 // flag bits of the segment's first event, not yet emitted
}

// NewTraceSource builds a replaying stream source over t. blockBytes
// is the run-segmentation granule, as for NewFetchSource.
func NewTraceSource(t *FetchTrace, blockBytes int) (*TraceSource, error) {
	if err := checkBlockBytes(blockBytes); err != nil {
		return nil, err
	}
	return &TraceSource{t: t, blockNeg: uint32(blockBytes - 1), left: t.events}, nil
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
	if r.fr == nil {
		r.src = bytes.NewReader(r.t.encoded)
		r.fr = flate.NewReader(r.src)
		r.win = make([]byte, traceReplayWindow)
		r.events = make([]uint32, fetchChunkEvents)
	}
	n := fetchChunkEvents
	if r.left < uint64(n) {
		n = int(r.left)
	}
	ev := r.events[:n]
	for i := 0; i < n; {
		if r.segLeft == 0 {
			if err := r.nextSegment(); err != nil {
				return nil, err
			}
		}
		k := r.segLeft
		if rest := uint32(n - i); rest < k {
			k = rest
		}
		addr := r.segNext
		ev[i] = addr | r.segFlags
		r.segFlags = 0
		for j := 1; j < int(k); j++ {
			ev[i+j] = addr + 4*uint32(j)
		}
		i += int(k)
		r.segLeft -= k
		r.segNext = addr + 4*k
	}
	r.left -= uint64(n)
	r.runs = segmentRuns(ev, r.blockNeg, r.runs[:0])
	return &FetchChunk{Events: ev, Runs: r.runs}, nil
}

// nextSegment decodes one segment header.
func (r *TraceSource) nextSegment() error {
	if r.end-r.pos < 2*binary.MaxVarintLen64 && !r.eof {
		if err := r.refill(); err != nil {
			return err
		}
	}
	win := r.win
	head, k := binary.Uvarint(win[r.pos:r.end])
	if k <= 0 {
		return errCorruptTrace
	}
	length, k2 := binary.Uvarint(win[r.pos+k : r.end])
	if k2 <= 0 || length >= 1<<32-1 {
		return errCorruptTrace
	}
	r.pos += k + k2
	zz := uint32(head >> 2)
	delta := int32(zz>>1) ^ -int32(zz&1)
	addr := r.prevEnd + uint32(delta)<<2
	r.segNext, r.segLeft, r.segFlags = addr, uint32(length)+1, uint32(head&3)
	r.prevEnd = addr + 4*r.segLeft
	return nil
}

// refill moves the undecoded bytes to the front of the window and
// inflates behind them, moving on to the next block at the end of
// each one.
func (r *TraceSource) refill() error {
	win, fr := r.win, r.fr
	n := copy(win, win[r.pos:r.end])
	for n < len(win) {
		m, err := fr.Read(win[n:])
		n += m
		if err == io.EOF {
			if r.src.Len() == 0 {
				r.eof = true
				break
			}
			err = fr.(flate.Resetter).Reset(r.src, nil)
		}
		if err != nil {
			return fmt.Errorf("%w: %v", errCorruptTrace, err)
		}
	}
	r.pos, r.end = 0, n
	return nil
}

func (r *TraceSource) outcome() producerOutcome { return r.t.out }
