package sim

// Single-pass multi-model simulation. The detailed run of a program is
// split into two halves:
//
//   - a stream source: a FetchSource executing the program once — CPU,
//     memory image and data-side hierarchy — or a TraceSource replaying
//     a recording of such a pass, as recorded or relocated onto another
//     layout of the same program (NewRelocSource). Each emits the
//     instruction-fetch event stream (address + indirect-transfer flag
//     per instruction) and analyses it once for every consumer: it
//     segments the events into same-block runs, finds their exact
//     repeats, and (live or relocated) drives the reference I-TLB,
//     whose outcome every non-adaptive model reports;
//   - N CacheModels: independent instruction-side models (I-cache
//     fetch engine, energy accounting) consuming that analysed stream.
//
// Every figure-6 style sweep re-executes the same program under
// configurations that differ only in the instruction side, so one
// fetch stream can drive every (geometry, scheme, WP-size) cell of a
// workload at once. RunMulti is the entry point; RunContext is now a
// thin one-model wrapper around it, and RunCoupled keeps the original
// coupled loop as the reference implementation for internal/check.
//
// What is fetch-relevant in a Config — i.e. what must be shared by
// models driven from one source — is exactly what the producer owns
// (StreamConfig): the program binary, Mem, Timing, DCache, DTLB, the
// I-TLB and MaxInstrs. Everything instruction-side (ICache geometry,
// scheme, array style, WP size, ablation switches, adaptive policy) is
// per-model, carried by a ModelSpec.

import (
	"context"
	"fmt"
	"slices"

	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/energy"
	"wayplace/internal/mem"
	"wayplace/internal/obj"
	"wayplace/internal/tlb"
)

// ModelSpec describes one instruction-side model evaluated against a
// shared fetch stream: the I-cache geometry, the fetch scheme and its
// knobs: the way to say "the same machine, under scheme X".
type ModelSpec struct {
	// Geometry is the I-cache configuration.
	Geometry cache.Config
	Scheme   energy.Scheme
	// Style selects CAM-tag (default) or RAM-tag energy accounting.
	Style energy.ArrayStyle
	// WPSize is the static way-placement area size in bytes
	// (way-placement scheme only, multiple of the I-TLB page).
	WPSize uint32

	// Ablation switches (way-placement scheme only).
	OracleHint bool
	NoSameLine bool

	// Adaptive, when non-nil, runs the model under the adaptive OS
	// area-sizing policy: the scheme is forced to way-placement and the
	// model keeps a private I-TLB, since OS invalidations perturb it.
	Adaptive *AdaptivePolicy
}

// ModelSpecOf extracts the instruction-side half of a Config.
func ModelSpecOf(cfg Config) ModelSpec {
	return ModelSpec{
		Geometry:   cfg.ICache,
		Scheme:     cfg.Scheme,
		Style:      cfg.Style,
		WPSize:     cfg.WPSize,
		OracleHint: cfg.OracleHint,
		NoSameLine: cfg.NoSameLine,
	}
}

// ModelResult is one model's outcome from a RunMulti pass. Exactly one
// of Err and Stats is non-nil.
type ModelResult struct {
	Stats *RunStats
	// AreaChanges is the OS resize trace of an adaptive model.
	AreaChanges []AreaChange
	// Err reports a per-model failure (invalid spec, policy error);
	// other models of the same pass are unaffected.
	Err error
}

// FetchRun is a maximal sub-sequence of a chunk whose events all lie
// in one aligned block no larger than any model's cache line and the
// I-TLB page: after the first event the line is resident and the page
// translated for every model, so the remaining N-1 events can be
// replayed in bulk (cache.FetchEngine FetchSameLine, tlb.TLB.BulkHits).
type FetchRun struct {
	Start uint32 // index of the run's first event in Events
	N     uint32 // number of events in the run
}

// FetchChunk is one batch of fetch events. Events holds one word per
// retired instruction: the fetch address with cpu.EventIndirect in bit
// 0. Runs segments the same events for bulk replay, and Reps lists the
// chunk's exact repeats in those runs. The source fills in all three,
// and all three alias buffers reused by its next NextChunk call.
type FetchChunk struct {
	Events []uint32
	Runs   []FetchRun
	Reps   []FetchRep
}

// FetchRep is an exact repeat inside a chunk, in run indices: the
// period Runs[Probe:Skip] repeats, event for event, the period of the
// same length just before it, and Runs[Skip:End] is a whole number
// (at least one) of further copies of it. Reps are ordered and
// disjoint, and never cross a chunk boundary.
type FetchRep struct {
	Probe, Skip, End uint32
}

// repMaxPeriod bounds the period, in runs, of a repeat.
const repMaxPeriod = 512

// repTableBits sizes the repeat finder's candidate table.
const repTableBits = 12

// repeatFinder finds a chunk's exact repeats. Its table remembers,
// per hash of a run's first event, the last run index (plus one) that
// started with it: a run whose first event was seen p runs ago is a
// candidate for a period of p runs, confirmed by comparing the events
// of the two periods. The table and the result buffer are reused
// across chunks.
type repeatFinder struct {
	last [1 << repTableBits]int32
	reps []FetchRep
}

// find returns ch's repeats, nil if there are none; the slice is valid
// until the next call.
func (f *repeatFinder) find(ch *FetchChunk) []FetchRep {
	ev, runs := ch.Events, ch.Runs
	clear(f.last[:])
	slot := func(i int) *int32 { return &f.last[(ev[runs[i].Start]*0x9e3779b1)>>(32-repTableBits)] }
	// span returns the events of runs[i:i+p].
	span := func(i, p int) []uint32 {
		end := uint32(len(ev))
		if i+p < len(runs) {
			end = runs[i+p].Start
		}
		return ev[runs[i].Start:end]
	}
	reps := f.reps[:0]
	for i := 0; i < len(runs); i++ {
		s := slot(i)
		j := int(*s) - 1
		*s = int32(i + 1)
		p := i - j
		if j < 0 || p > repMaxPeriod || i+2*p > len(runs) {
			continue
		}
		probe := span(i, p)
		if !slices.Equal(span(j, p), probe) {
			continue
		}
		end := i + p
		for end+p <= len(runs) && slices.Equal(span(end, p), probe) {
			end += p
		}
		if end == i+p {
			continue
		}
		reps = append(reps, FetchRep{Probe: uint32(i), Skip: uint32(i + p), End: uint32(end)})
		// Resume after the repeat, remembering its last copy.
		for k := end - p; k < end; k++ {
			*slot(k) = int32(k + 1)
		}
		i = end - 1
	}
	f.reps = reps
	if len(reps) == 0 {
		return nil
	}
	return reps
}

// fetchChunkEvents is the production batch size: large enough to
// amortise per-chunk work, small enough to stay cache-resident, and
// matching the granularity of context cancellation checks.
const fetchChunkEvents = 64 << 10

// FetchSource executes a program once — CPU, memory image and
// data-side hierarchy live; instruction side detached — and emits the
// fetch-event stream in analysed chunks: segmented into runs, with
// their repeats found and the reference I-TLB driven over them.
type FetchSource struct {
	cpu    *cpu.CPU
	mem    *mem.Memory
	dcache *cache.DataCache
	dtlb   *tlb.TLB
	itlb   refITLB

	maxInstrs uint64
	blockNeg  uint32 // blockBytes-1: events with equal ev&^blockNeg share a run
	events    []uint32
	runs      []FetchRun
	reps      repeatFinder
	done      bool
}

// NewFetchSource builds the producer half of a single-pass run.
// blockBytes (a power of two ≥ 4, at most the I-TLB page) is the
// run-segmentation granule; it must not exceed any consuming model's
// line size.
func NewFetchSource(prog *obj.Program, base Config, blockBytes int) (*FetchSource, error) {
	if err := checkBlockBytes(blockBytes, base.ITLB); err != nil {
		return nil, err
	}
	m := mem.New(base.Mem)
	c := cpu.New(prog, m)
	c.DisableInstrCounts() // event production never builds a profile
	c.Timing = base.Timing
	dtlb, err := tlb.New(base.DTLB)
	if err != nil {
		return nil, err
	}
	itlb, err := tlb.New(base.ITLB)
	if err != nil {
		return nil, err
	}
	dcache, err := cache.NewData(base.DCache)
	if err != nil {
		return nil, err
	}
	c.DCache = dcache
	c.DTLB = dtlb
	maxInstrs := base.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = Default().MaxInstrs
	}
	return &FetchSource{
		cpu:       c,
		mem:       m,
		dcache:    dcache,
		dtlb:      dtlb,
		itlb:      refITLB{tlb: itlb, page: noPage},
		maxInstrs: maxInstrs,
		blockNeg:  uint32(blockBytes - 1),
		events:    make([]uint32, fetchChunkEvents),
	}, nil
}

// checkBlockBytes validates a run-segmentation granule: a run must
// stay on one page of itlb, whose lookups it shares.
func checkBlockBytes(blockBytes int, itlb tlb.Config) error {
	if blockBytes < 4 || blockBytes&(blockBytes-1) != 0 {
		return fmt.Errorf("sim: fetch-run block size must be a power of two ≥ 4, got %d", blockBytes)
	}
	if blockBytes > itlb.PageBytes {
		return fmt.Errorf("sim: fetch-run block size %d exceeds the %d-byte I-TLB page", blockBytes, itlb.PageBytes)
	}
	return nil
}

// NextChunk produces the next batch of fetch events, or (nil, nil)
// once the program has halted. The returned chunk's slices are only
// valid until the next call.
func (s *FetchSource) NextChunk(ctx context.Context) (*FetchChunk, error) {
	if s.done {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, err := s.cpu.RunEvents(s.events, s.maxInstrs)
	if err != nil {
		return nil, err
	}
	s.done = s.cpu.Halted
	if n == 0 {
		return nil, nil
	}
	ev := s.events[:n]
	s.runs = segmentRuns(ev, s.blockNeg, s.runs[:0])
	ch := &FetchChunk{Events: ev, Runs: s.runs}
	ch.Reps = s.reps.find(ch)
	s.itlb.translate(ch)
	return ch, nil
}

// noPage is never a page number: pages are at least 4 bytes.
const noPage = ^uint32(0)

// refITLB is a stream's reference I-TLB, whose stats every
// non-adaptive model reports. The source that analyses the stream
// drives it over every chunk.
type refITLB struct {
	tlb  *tlb.TLB
	page uint32 // the page of the last Lookup; noPage before the first
}

// translate drives the I-TLB over a chunk. A run never leaves its
// page, and while the stream stays on one page every lookup takes the
// TLB's last-page fast path, so each page change costs one Lookup and
// the hits on that page are charged in bulk.
func (t *refITLB) translate(ch *FetchChunk) {
	shift := t.tlb.Cfg.PageShift()
	hits := uint64(0)
	for _, r := range ch.Runs {
		addr := cpu.EventAddr(ch.Events[r.Start])
		if addr>>shift == t.page {
			hits += uint64(r.N)
			continue
		}
		t.tlb.BulkHits(hits)
		t.tlb.Lookup(addr)
		t.page = addr >> shift
		hits = uint64(r.N - 1)
	}
	t.tlb.BulkHits(hits)
}

// segmentRuns splits a non-empty chunk into same-block runs, appending
// them to runs. blockNeg ≥ 3, so masking it off also clears the
// indirect flag bit.
func segmentRuns(ev []uint32, blockNeg uint32, runs []FetchRun) []FetchRun {
	start, block := 0, ev[0]&^blockNeg
	for i := 1; i < len(ev); i++ {
		if b := ev[i] &^ blockNeg; b != block {
			runs = append(runs, FetchRun{Start: uint32(start), N: uint32(i - start)})
			start, block = i, b
		}
	}
	return append(runs, FetchRun{Start: uint32(start), N: uint32(len(ev) - start)})
}

// outcome is the producer's share of every RunStats; valid once
// NextChunk has reported the end of the stream.
func (s *FetchSource) outcome() producerOutcome {
	return producerOutcome{
		instrs:    s.cpu.Instrs,
		cycles:    s.cpu.Cycles,
		dstats:    s.dcache.Cache().Stats,
		dtlbStats: s.dtlb.Stats,
		itlbStats: s.itlb.tlb.Stats,
		memStats:  s.mem.Stats,
		checksum:  s.cpu.Regs[0],
		memHash:   s.mem.Hash(cpu.StackRegionBase),
	}
}

// streamSource is the seam between runMulti and where its analysed
// fetch stream comes from: a live FetchSource, a recording wrapped
// around one, or the replay of a recorded trace (TraceSource), as
// recorded or relocated, itself possibly wrapped in a recording. Every
// chunk comes with its Runs and Reps filled in. outcome is read once,
// after NextChunk has reported the end of the stream.
type streamSource interface {
	NextChunk(ctx context.Context) (*FetchChunk, error)
	outcome() producerOutcome
}

// CacheModel is one instruction-side model consuming a fetch-event
// stream. Implementations are created by RunMulti from ModelSpecs;
// the interface is the seam between production and modelling.
type CacheModel interface {
	// Consume replays one chunk. An error marks this model failed;
	// other models sharing the stream continue.
	Consume(*FetchChunk) error

	core() *modelCore
}

// modelCore is the state every model shape shares.
type modelCore struct {
	spec    ModelSpec
	fe      cache.FetchEngine
	ownITLB *tlb.TLB     // adaptive models only; nil means report the source's reference I-TLB
	changes []AreaChange // adaptive resize trace

	repeatedRuns uint64 // runs consumeRepeats charged in closed form
}

func (m *modelCore) core() *modelCore { return m }

// staticWPOracle is the way-placement bit for a run whose area never
// changes: a pure range check. With a static area the I-TLB's resident
// way-bits always agree with the page tables, so the hardware's
// entry-sourced bit reduces to exactly this predicate.
type staticWPOracle struct{ start, size uint32 }

func (o staticWPOracle) WayPlaced(addr uint32) bool {
	return o.size != 0 && addr >= o.start && addr-o.start < o.size
}

// The bulk models replay runs in bulk: one real Fetch per run, then
// the engine's FetchSameLine fast path for the rest, which the first
// fetch settles for every scheme (NoSameLine included: the way hint
// then equals the page's way-placement bit). One concrete model type
// per engine keeps the per-run calls direct (devirtualised and
// inlinable); the repeat walk (consumeRepeats) wraps that run loop and
// charges repeated loop iterations in closed form, which takes most
// runs off it.

type baselineBulkModel struct {
	modelCore
	be *cache.BaselineEngine
}

func (m *baselineBulkModel) Consume(ch *FetchChunk) error {
	m.consumeRepeats(ch, m.fetchRuns)
	return nil
}

func (m *baselineBulkModel) fetchRuns(events []uint32, runs []FetchRun) {
	for _, r := range runs {
		ev := events[r.Start]
		m.be.Fetch(cpu.EventAddr(ev), ev&cpu.EventIndirect != 0)
		if r.N > 1 {
			m.be.FetchSameLine(int(r.N - 1))
		}
	}
}

type wayMemoBulkModel struct {
	modelCore
	wm *cache.WayMemoizationEngine
}

func (m *wayMemoBulkModel) Consume(ch *FetchChunk) error {
	m.consumeRepeats(ch, m.fetchRuns)
	return nil
}

func (m *wayMemoBulkModel) fetchRuns(events []uint32, runs []FetchRun) {
	for _, r := range runs {
		ev := events[r.Start]
		m.wm.Fetch(cpu.EventAddr(ev), ev&cpu.EventIndirect != 0)
		if r.N > 1 {
			m.wm.FetchSameLine(int(r.N-1), cpu.EventAddr(events[r.Start+r.N-1]))
		}
	}
}

type wayPlaceBulkModel struct {
	modelCore
	wpe *cache.WayPlacementEngine
}

func (m *wayPlaceBulkModel) Consume(ch *FetchChunk) error {
	m.consumeRepeats(ch, m.fetchRuns)
	return nil
}

func (m *wayPlaceBulkModel) fetchRuns(events []uint32, runs []FetchRun) {
	for _, r := range runs {
		ev := events[r.Start]
		m.wpe.Fetch(cpu.EventAddr(ev), ev&cpu.EventIndirect != 0)
		if r.N > 1 {
			m.wpe.FetchSameLine(int(r.N-1), cpu.EventAddr(events[r.Start+r.N-1]))
		}
	}
}

// consumeRepeats feeds ch's runs to fetchRuns, the model's run loop,
// charging the copies of each repeat in closed form where it can.
//
// A repeat's copies are consumed one at a time from its probe on.
// After a copy whose fetches were clean — no miss, fill, link write,
// stale link or flush — the remaining n copies are charged as n times
// that copy's counts (cache.Cache.RepeatSince). This is exact. A clean
// copy changes no resident line, link or round-robin pointer. The rest
// of the engine state a fetch reads is a function of the resident
// lines and of the last event before it: the way-placement line buffer
// and way hint, way-memoization's predecessor (address, line and its
// generation) and the baseline's last line. The MRU way only shortens a
// search. The event before a copy is the previous copy's last event,
// and every copy, the probe included, follows an identical copy, so
// the state after a clean copy equals the state before it and every
// later copy repeats its counts exactly. Recency (tick and lastUse)
// does move on a hit and is not charged, which is why only
// round-robin caches qualify (cache.Cache.Repeatable); any other cache
// gets the whole chunk in one fetchRuns call. A dirty copy (a cold
// line, a first link along the loop's back edge, or a thrashing set)
// makes the next copy the probe, and a repeat whose copies are all
// dirty is consumed run by run.
func (m *modelCore) consumeRepeats(ch *FetchChunk, fetchRuns func(events []uint32, runs []FetchRun)) {
	runs := ch.Runs
	c := m.fe.Cache()
	if !c.Repeatable() {
		fetchRuns(ch.Events, runs)
		return
	}
	at := uint32(0)
	for _, r := range ch.Reps {
		fetchRuns(ch.Events, runs[at:r.Probe])
		p := r.Skip - r.Probe
		for at = r.Probe; at < r.End; {
			snap := c.Stats
			fetchRuns(ch.Events, runs[at:at+p])
			at += p
			if at < r.End && c.RepeatSince(&snap, uint64((r.End-at)/p)) {
				m.repeatedRuns += uint64(r.End - at)
				at = r.End
			}
		}
	}
	fetchRuns(ch.Events, runs[at:])
}

// adaptiveModel consumes runs under the adaptive OS policy: a private
// I-TLB (OS invalidations make its stats diverge from the reference one)
// and an OS decision point every IntervalInstrs consumed events,
// reproducing sim.RunAdaptive's coupled loop bit for bit. A run is
// split at each decision point; a piece is one Lookup and one Fetch,
// then bulk I-TLB hits and same-line fetches.
type adaptiveModel struct {
	modelCore
	wpe      *cache.WayPlacementEngine
	pol      AdaptivePolicy
	progBase uint32
	size     uint32
	prev     cache.Stats
	consumed uint64
}

func (m *adaptiveModel) Consume(ch *FetchChunk) error {
	interval := m.pol.IntervalInstrs
	for _, r := range ch.Runs {
		for at, end := uint64(r.Start), uint64(r.Start+r.N); at < end; {
			k := m.consumed % interval
			if k == 0 && m.consumed > 0 {
				if err := m.decide(); err != nil {
					return err
				}
			}
			n := min(end-at, interval-k)
			ev := ch.Events[at]
			addr := cpu.EventAddr(ev)
			m.ownITLB.Lookup(addr)
			m.ownITLB.BulkHits(n - 1)
			m.wpe.Fetch(addr, ev&cpu.EventIndirect != 0)
			if n > 1 {
				m.wpe.FetchSameLine(int(n-1), cpu.EventAddr(ch.Events[at+n-1]))
			}
			m.consumed += n
			at += n
		}
	}
	return nil
}

// decide is one OS decision point, mirroring RunAdaptive's loop body:
// inspect the window, maybe resize, flush and invalidate on a change.
func (m *adaptiveModel) decide() error {
	cur := m.wpe.Cache().Stats
	dFetch := cur.Fetches - m.prev.Fetches
	if dFetch == 0 {
		m.prev = cur
		return nil
	}
	wpFrac := float64(cur.WPAreaFetches-m.prev.WPAreaFetches) / float64(dFetch)
	missRate := float64(cur.Misses-m.prev.Misses) / float64(dFetch)
	m.prev = cur

	newSize := m.size
	switch {
	case m.size > uint32(m.spec.Geometry.SizeBytes) && missRate > m.pol.AliasMissRate && m.size/2 >= m.pol.MinSize:
		newSize = m.size / 2
	case wpFrac < m.pol.GrowThreshold && m.size*2 <= m.pol.MaxSize:
		newSize = m.size * 2
	}
	if newSize != m.size {
		m.size = newSize
		if err := m.ownITLB.SetWPArea(m.progBase, m.size); err != nil {
			return err
		}
		m.wpe.Cache().Flush()
		m.ownITLB.Invalidate()
		m.changes = append(m.changes, AreaChange{AtInstr: m.consumed, Size: m.size})
	}
	if m.pol.Inspect != nil {
		m.pol.Inspect(m.ownITLB, m.wpe.Cache())
	}
	return nil
}

// testHookRepeatedRuns, when set by a test, receives each live
// model's spec and the number of runs it charged in closed form.
var testHookRepeatedRuns func(spec ModelSpec, repeatedRuns uint64)

// newModel builds the CacheModel for one spec.
func newModel(base Config, spec ModelSpec, prog *obj.Program) (CacheModel, error) {
	if err := spec.Geometry.Validate(); err != nil {
		return nil, fmt.Errorf("sim: i-cache: %w", err)
	}
	if spec.Adaptive != nil {
		pol := *spec.Adaptive
		if pol.IntervalInstrs == 0 || pol.StartSize == 0 {
			return nil, fmt.Errorf("sim: adaptive policy needs an interval and a start size")
		}
		itlb, err := tlb.New(base.ITLB)
		if err != nil {
			return nil, err
		}
		if err := itlb.SetWPArea(prog.Base, pol.StartSize); err != nil {
			return nil, err
		}
		wpe, err := cache.NewWayPlacement(spec.Geometry, itlb)
		if err != nil {
			return nil, err
		}
		spec.Scheme = energy.WayPlacement
		spec.WPSize = pol.StartSize
		return &adaptiveModel{
			modelCore: modelCore{spec: spec, fe: wpe, ownITLB: itlb,
				changes: []AreaChange{{AtInstr: 0, Size: pol.StartSize}}},
			wpe: wpe, pol: pol, progBase: prog.Base, size: pol.StartSize,
		}, nil
	}

	switch spec.Scheme {
	case energy.Baseline:
		be, err := cache.NewBaseline(spec.Geometry)
		if err != nil {
			return nil, err
		}
		return &baselineBulkModel{modelCore: modelCore{spec: spec, fe: be}, be: be}, nil

	case energy.WayMemoization:
		wm, err := cache.NewWayMemoization(spec.Geometry)
		if err != nil {
			return nil, err
		}
		return &wayMemoBulkModel{modelCore: modelCore{spec: spec, fe: wm}, wm: wm}, nil

	case energy.WayPlacement:
		if spec.WPSize > 0 {
			// Reuse the TLB's own area validation (page alignment,
			// multiple-of-page size, no address-space wrap) so a bad
			// spec fails with the same error as the coupled path.
			t, err := tlb.New(base.ITLB)
			if err != nil {
				return nil, err
			}
			if err := t.SetWPArea(prog.Base, spec.WPSize); err != nil {
				return nil, err
			}
		}
		wpe, err := cache.NewWayPlacement(spec.Geometry, staticWPOracle{start: prog.Base, size: spec.WPSize})
		if err != nil {
			return nil, err
		}
		wpe.OracleHint = spec.OracleHint
		wpe.NoSameLine = spec.NoSameLine
		return &wayPlaceBulkModel{modelCore: modelCore{spec: spec, fe: wpe}, wpe: wpe}, nil
	}
	return nil, fmt.Errorf("sim: unknown scheme %v", spec.Scheme)
}

// validateShared checks the producer-side half of the base Config.
func validateShared(base Config) error {
	if err := base.DCache.Validate(); err != nil {
		return fmt.Errorf("sim: d-cache: %w", err)
	}
	if err := base.ITLB.Validate(); err != nil {
		return fmt.Errorf("sim: i-tlb: %w", err)
	}
	if err := base.DTLB.Validate(); err != nil {
		return fmt.Errorf("sim: d-tlb: %w", err)
	}
	return nil
}

// RunMulti executes prog once on the machine described by base's
// producer-side fields and evaluates every model against the shared
// fetch stream. Results are positional: results[i] belongs to
// models[i], carrying either stats or a per-model error. The returned
// error is reserved for whole-pass failures — producer faults, budget
// exhaustion, cancellation — which leave no per-model results.
//
// Stats are bit-identical to running each model through the coupled
// per-cell loop (RunCoupled / RunAdaptive); internal/check's
// differential harness and check.TestSinglePassMatchesPerCell enforce
// this.
func RunMulti(ctx context.Context, prog *obj.Program, base Config, models []ModelSpec) ([]*ModelResult, error) {
	return runMulti(ctx, prog, base, models, func(block int) (streamSource, error) {
		return NewFetchSource(prog, base, block)
	})
}

// runMulti is RunMulti over the stream source open returns for the
// pass's run-segmentation block size. open is called at most once,
// and only when some model is live.
func runMulti(ctx context.Context, prog *obj.Program, base Config, models []ModelSpec, open func(block int) (streamSource, error)) ([]*ModelResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateShared(base); err != nil {
		return nil, err
	}
	results := make([]*ModelResult, len(models))

	// Behaviourally identical specs consume the stream once. Two specs
	// whose key below matches produce bit-identical cache and I-TLB
	// activity, so one consumed model serves all of them and each spec
	// gets its own finalize (energy accounting reads the spec's array
	// style). Beyond exact instruction-side duplicates this collapses
	// way-placement areas that both cover the whole text image: every
	// fetch address lies inside [Base, Base+Size()), so any area at
	// least that large saturates the static oracle.
	type behaviourKey struct {
		geom       cache.Config
		scheme     energy.Scheme
		wp         uint32 // effective WP size; wpSaturated once ≥ text
		oracleHint bool
		noSameLine bool
	}
	const wpSaturated = ^uint32(0)
	primary := make(map[behaviourKey]int, len(models))
	aliasOf := make([]int, len(models))

	// Build models; spec problems fail per model, not the pass. Every
	// spec is built (keeping per-spec validation errors identical to the
	// coupled path) but aliases are then discarded rather than driven.
	built := make([]CacheModel, len(models))
	live := make([]CacheModel, 0, len(models))
	block := base.ITLB.PageBytes
	for i, spec := range models {
		aliasOf[i] = -1
		m, err := newModel(base, spec, prog)
		if err != nil {
			results[i] = &ModelResult{Err: err}
			continue
		}
		if spec.Adaptive == nil {
			k := behaviourKey{
				geom:       spec.Geometry,
				scheme:     spec.Scheme,
				oracleHint: spec.OracleHint,
				noSameLine: spec.NoSameLine,
			}
			if spec.Scheme == energy.WayPlacement {
				k.wp = spec.WPSize
				if spec.WPSize >= prog.Size() {
					k.wp = wpSaturated
				}
			}
			if p, ok := primary[k]; ok {
				aliasOf[i] = p
				continue
			}
			primary[k] = i
		}
		built[i] = m
		live = append(live, m)
		if lb := m.core().spec.Geometry.LineBytes; lb < block {
			block = lb
		}
	}
	if len(live) == 0 {
		return results, nil
	}

	// The source analyses the stream: runs, repeats and the reference
	// I-TLB, whose lookup outcomes depend only on the address stream
	// and the TLB geometry — never on the WP area — so one pass serves
	// every non-adaptive model. The models only consume.
	src, err := open(block)
	if err != nil {
		return nil, err
	}
	for {
		ch, err := src.NextChunk(ctx)
		if err != nil {
			return nil, err
		}
		if ch == nil {
			break
		}
		n := 0
		for _, m := range live {
			if cerr := m.Consume(ch); cerr != nil {
				for i, b := range built {
					if b == m {
						results[i] = &ModelResult{Err: cerr}
						built[i] = nil
					}
				}
				continue
			}
			live[n] = m
			n++
		}
		live = live[:n]
		if len(live) == 0 {
			break
		}
	}

	out := src.outcome()
	for i, m := range built {
		if m == nil {
			continue
		}
		c := m.core()
		if testHookRepeatedRuns != nil {
			testHookRepeatedRuns(c.spec, c.repeatedRuns)
		}
		results[i] = &ModelResult{
			Stats:       c.finalize(base, &out),
			AreaChanges: c.changes,
		}
	}
	// Alias specs finalize from their primary's consumed state; a
	// primary that failed mid-stream fails its aliases the same way.
	for i, p := range aliasOf {
		if p < 0 {
			continue
		}
		if built[p] == nil {
			results[i] = &ModelResult{Err: results[p].Err}
			continue
		}
		results[i] = &ModelResult{
			Stats: built[p].core().finalizeAs(models[i], base, &out),
		}
	}
	return results, nil
}

// finalize assembles one model's RunStats from the producer outcome
// and the model's instruction-side state. The coupled loop interleaves
// instruction-side stalls into the cycle count as it goes; here they
// are reconstructed in closed form — each charged stall corresponds
// one-to-one to a counted event:
//
//	cycles = producer cycles (base + data-side stalls)
//	       + TLBWalkPenalty × I-TLB misses
//	       + LineFillCycles(line) × I-cache line fills
//	       + HintExtraPenalty × way-hint extra accesses
func (m *modelCore) finalize(base Config, out *producerOutcome) *RunStats {
	return m.finalizeAs(m.spec, base, out)
}

// finalizeAs assembles RunStats for spec from m's consumed state. spec
// must be behaviourally identical to m.spec (same geometry, scheme and
// effective WP area); it may differ in array style and in the exact WP
// size when both areas cover the text image, neither of which affects
// the counted events — only the energy model reads them.
func (m *modelCore) finalizeAs(spec ModelSpec, base Config, out *producerOutcome) *RunStats {
	istats := m.fe.Cache().Stats
	itlbStats := out.itlbStats
	if m.ownITLB != nil {
		itlbStats = m.ownITLB.Stats
	}
	lineBytes := spec.Geometry.LineBytes
	cycles := out.cycles +
		uint64(base.Timing.TLBWalkPenalty)*itlbStats.Misses +
		uint64(base.Mem.LineFillCycles(lineBytes))*istats.LineFills +
		uint64(base.Timing.HintExtraPenalty)*istats.HintExtraAccess

	memStats := out.memStats
	memStats.Reads += istats.LineFills
	memStats.BytesRead += istats.LineFills * uint64(lineBytes)

	rs := &RunStats{
		Scheme:    spec.Scheme,
		Instrs:    out.instrs,
		Cycles:    cycles,
		IStats:    istats,
		DStats:    out.dstats,
		ITLBStats: itlbStats,
		DTLBStats: out.dtlbStats,
		MemStats:  memStats,
		Checksum:  out.checksum,
		MemHash:   out.memHash,
	}
	rs.Energy = energy.Compute(base.Energy, energy.SystemStats{
		Scheme: spec.Scheme,
		Style:  spec.Style,
		ICfg:   spec.Geometry,
		IStats: rs.IStats,
		DCfg:   base.DCache,
		DStats: rs.DStats,
		ITLB:   rs.ITLBStats,
		DTLB:   rs.DTLBStats,
		Cycles: rs.Cycles,
	})
	return rs
}
