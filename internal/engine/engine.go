// Package engine is the concurrent experiment scheduler. The paper's
// evaluation is a grid of independent (workload, cache config, scheme,
// WP-size) simulation cells — every figure, ablation and extension
// sweep is some slice of that grid — so the engine runs cells on a
// worker pool, deduplicates identical cells, and memoises results in a
// keyed run cache so overlapping slices (the 32KB/32-way baseline is
// shared by figures 4, 5 and 6) are simulated exactly once.
//
// Every fresh cell runs the same way: the cells of a batch that share
// a fetch stream (RunSpec.Stream) form one group, and the group is one
// single-pass simulation driving every member's cache model off that
// stream: sim.ReplayMulti when the stream was recorded before,
// sim.RelocateMulti of the workload's original-layout recording for a
// placed stream, sim.RecordMulti otherwise (trace.go). A batch of one
// cell is a group of one.
//
// The engine is context-aware end to end: cancellation propagates
// into the single-pass fetch loop, progress is reported through an
// optional callback, and per-cell failures are aggregated into a
// MultiError instead of aborting the whole grid.
//
// Results are deterministic: cells are pure functions of their spec
// and the base machine configuration, and callers receive them in
// input order, so output is byte-identical regardless of worker count.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wayplace/internal/energy"
	"wayplace/internal/obj"
	"wayplace/internal/obs"
	"wayplace/internal/sim"
)

// Metric names the engine registers when an observer is installed
// (WithObserver). Exported so snapshot builders and dashboards can
// reference them without string duplication.
const (
	// MetricCellNS: log-scale histogram of per-cell simulation wall
	// time in nanoseconds (fresh simulations only — cache hits are
	// effectively free and would drown the signal).
	MetricCellNS = "engine_cell_ns"
	// MetricPrepareNS: histogram of per-workload prepare (build,
	// profile, relink) wall time in nanoseconds.
	MetricPrepareNS = "engine_prepare_ns"
	// MetricCells: cells completed successfully (including cache hits).
	MetricCells = "engine_cells_total"
	// MetricCellFailures: cells that failed (simulation error, verify
	// rejection, or cancellation).
	MetricCellFailures = "engine_cell_failures_total"
	// MetricCacheHits / MetricCacheMisses mirror Engine.Hits/Misses.
	MetricCacheHits   = "engine_cache_hits_total"
	MetricCacheMisses = "engine_cache_misses_total"
	// MetricGroups / MetricCoalescedCells mirror Engine.Groups and
	// Engine.CoalescedCells: multi-cell single-pass groups executed,
	// and the cells that rode in them.
	MetricGroups         = "engine_groups_total"
	MetricCoalescedCells = "engine_coalesced_cells_total"
	// MetricTraceHits / MetricTraceMisses / MetricTraceRelocations
	// count single-pass groups that replayed a recorded fetch trace
	// (Engine.TraceHits), executed the program live (Engine.TraceMisses)
	// and relocated the workload's original-layout recording
	// (Engine.Relocations); MetricTraceBytes is the compressed size of
	// the engine's trace table.
	MetricTraceHits        = "engine_trace_hits_total"
	MetricTraceMisses      = "engine_trace_misses_total"
	MetricTraceRelocations = "engine_trace_relocations_total"
	MetricTraceBytes       = "engine_trace_bytes"
	// MetricInflight: cells currently inside a simulator.
	MetricInflight = "engine_inflight_cells"
	// MetricInstructions: instructions simulated (fresh cells only),
	// so instructions/second measures simulator throughput.
	MetricInstructions = "sim_instructions_total"
	// MetricEnergyPrefix + scheme.String(): summed whole-processor
	// energy (model units) per scheme, fresh cells only.
	MetricEnergyPrefix = "sim_energy_total_"
)

// instruments are the engine's pre-resolved observability hooks. With
// no observer every field is nil and each call is a nil-receiver
// no-op, so the per-cell path pays nothing (obs.TestNilRegistryAllocFree
// proves zero allocations).
type instruments struct {
	cellNS    *obs.Histogram
	prepareNS *obs.Histogram
	cells     *obs.Counter
	failures  *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	groups    *obs.Counter
	coalesced *obs.Counter
	traceHits *obs.Counter
	traceMiss *obs.Counter
	relocs    *obs.Counter
	instrs    *obs.Counter
	inflight  *obs.Gauge
	traceSize *obs.Gauge
	energy    [3]*obs.Gauge // indexed by energy.Scheme
}

func newInstruments(r *obs.Registry) instruments {
	if r == nil {
		return instruments{}
	}
	ins := instruments{
		cellNS:    r.Histogram(MetricCellNS),
		prepareNS: r.Histogram(MetricPrepareNS),
		cells:     r.Counter(MetricCells),
		failures:  r.Counter(MetricCellFailures),
		hits:      r.Counter(MetricCacheHits),
		misses:    r.Counter(MetricCacheMisses),
		groups:    r.Counter(MetricGroups),
		coalesced: r.Counter(MetricCoalescedCells),
		traceHits: r.Counter(MetricTraceHits),
		traceMiss: r.Counter(MetricTraceMisses),
		relocs:    r.Counter(MetricTraceRelocations),
		instrs:    r.Counter(MetricInstructions),
		inflight:  r.Gauge(MetricInflight),
		traceSize: r.Gauge(MetricTraceBytes),
	}
	for s := range ins.energy {
		ins.energy[s] = r.Gauge(MetricEnergyPrefix + energy.Scheme(s).String())
	}
	return ins
}

// record books one fresh (simulated) cell's statistics.
func (ins *instruments) record(spec RunSpec, stats *sim.RunStats, wall time.Duration) {
	ins.cellNS.ObserveDuration(wall)
	ins.instrs.Add(stats.Instrs)
	if int(spec.Scheme) < len(ins.energy) {
		ins.energy[spec.Scheme].Add(stats.Energy.Total())
	}
}

// Workload is one prepared benchmark in the form the engine needs to
// run cells: the original-layout binary (baseline and way-memoization
// schemes) and the way-placement relaid binary. Both programs are
// immutable once linked and are shared, not copied, across concurrent
// cells. obj.Link must have built both from the same obj.Unit: the
// engine derives the placed stream from the original one's recording
// (sim.RelocateMulti), and fails a placed group whose binary is not
// another layout of the original.
type Workload struct {
	Name     string
	Original *obj.Program
	Placed   *obj.Program
}

// Provider supplies a prepared workload by name. The engine memoises
// provider calls per name, so the expensive profile-and-relink stage
// runs once per workload no matter how many concurrent cells need it.
// The provider must return programs that are safe to share read-only.
type Provider func(ctx context.Context, name string) (*Workload, error)

// Result bundles one cell's statistics with its spec, wall time and
// cache-hit provenance.
type Result struct {
	Spec  RunSpec
	Stats *sim.RunStats
	// AreaChanges is the OS resize trace of an adaptive cell
	// (Spec.Adaptive non-zero): one entry per area the OS installed,
	// the first at instruction 0. Nil for static cells. The slice is
	// shared across cache hits and must be treated as read-only.
	AreaChanges []sim.AreaChange
	// Wall is the time this cell's simulation took; zero when the
	// result came from the run cache.
	Wall time.Duration
	// CacheHit reports that the result was served from the run cache
	// (or deduplicated against an identical in-flight cell) rather
	// than simulated anew.
	CacheHit bool
	// GroupID names the single-pass group that simulated this cell:
	// cells sharing a stream (RunSpec.Stream) within one batch execute
	// as one multi-model pass, and every fresh cell of that pass carries
	// the stream as its id ("<workload>/original" or
	// "<workload>/placed"). A result an earlier batch or the store
	// tier settled carries none; a duplicate within the batch carries
	// its first occurrence's.
	GroupID string
}

// Progress is one completed cell's report to the progress callback.
// Failed cells are reported too (Err non-nil), so Done always reaches
// Total — a display driven by this callback must not treat a report
// as success without checking Err.
type Progress struct {
	Done, Total int
	Spec        RunSpec
	Wall        time.Duration
	CacheHit    bool
	// Err is non-nil when the cell failed: simulation error, verify
	// rejection, or cancellation.
	Err error
}

// Option configures an Engine or one Run call. Options passed to New
// become the engine defaults; options passed to Run override them for
// that batch.
type Option func(*options)

type options struct {
	workers  int
	base     sim.Config
	progress func(Progress)
	verify   func(sim.Config, *sim.RunStats) error
	obs      *obs.Registry
	store    StoreTier
}

// WithWorkers caps the number of cells simulated concurrently.
// Values below 1 mean GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithBaseConfig sets the machine template a cell's spec is resolved
// against: the spec supplies I-cache geometry, scheme and WP size,
// the base everything else (D-cache, TLBs, memory, timing, energy,
// array style, instruction budget). The run cache is keyed by the
// fully resolved configuration, so batches run against different
// bases never alias.
func WithBaseConfig(cfg sim.Config) Option {
	return func(o *options) { o.base = cfg }
}

// WithProgress installs a callback invoked (serially) after each cell
// completes.
func WithProgress(fn func(Progress)) Option {
	return func(o *options) { o.progress = fn }
}

// WithVerify installs an invariant checker run against every cell
// result — fresh simulations and run-cache hits alike — with the
// cell's fully resolved configuration. A non-nil error fails the cell
// exactly like a simulation error (reported per cell, grid continues).
// check.VerifyCell is the intended checker.
func WithVerify(fn func(sim.Config, *sim.RunStats) error) Option {
	return func(o *options) { o.verify = fn }
}

// StoreTier is a persistent result tier layered under the in-memory
// run cache (internal/store implements it over a disk CAS). Load is
// read-through — consulted on a memory miss before simulating, keyed
// by the cell's canonical RunSpec.Key() — and Save is write-behind:
// called after every fresh successful simulation, expected to queue
// the durable write off the hot path. Both must be safe for
// concurrent use. RunSpec.Key captures the cell but not the base
// machine template, so the tier is only consulted for batches run
// under the engine's default base configuration; a Run call that
// overrides WithBaseConfig bypasses it.
type StoreTier interface {
	Load(key string) (stats *sim.RunStats, changes []sim.AreaChange, ok bool)
	Save(key string, stats *sim.RunStats, changes []sim.AreaChange)
}

// WithStore installs a persistent result tier under the run cache.
// Results loaded from it count as cache hits (Result.CacheHit true,
// zero wall time) and are verified like any other result when
// WithVerify is installed.
func WithStore(tier StoreTier) Option {
	return func(o *options) { o.store = tier }
}

// WithObserver installs an observability registry (internal/obs): the
// engine registers per-cell and per-prepare latency histograms,
// run-cache counters, an in-flight gauge, and per-scheme instruction
// and energy totals (see the Metric* constants). A nil registry — the
// default — disables metrics entirely; the disabled path performs no
// allocations and no atomic operations. Observability never perturbs
// results: instruments are written outside the simulators.
func WithObserver(r *obs.Registry) Option {
	return func(o *options) { o.obs = r }
}

// Engine schedules simulation cells over a worker pool with a
// memoising run cache. It is safe for concurrent use.
type Engine struct {
	provider Provider
	defaults options
	ins      instruments

	mu        sync.Mutex
	workloads map[string]*workloadEntry
	runs      map[runKey]*runEntry
	traces    traceTable

	hits        atomic.Uint64
	misses      atomic.Uint64
	groups      atomic.Uint64
	coalesced   atomic.Uint64
	traceHits   atomic.Uint64
	traceMisses atomic.Uint64
	relocations atomic.Uint64
}

// workloadEntry memoises one provider call; done is closed when w/err
// are final. Entries that fail are removed so a later call can retry.
type workloadEntry struct {
	done chan struct{}
	w    *Workload
	err  error
}

// runKey is the run-cache fingerprint: the workload plus the fully
// resolved machine configuration (sim.Config is a comparable struct,
// so the key captures every field that can influence the result) plus
// the adaptive policy, which changes the run without being part of the
// machine configuration.
type runKey struct {
	workload string
	cfg      sim.Config
	adaptive AdaptiveSpec
}

type runEntry struct {
	done    chan struct{}
	stats   *sim.RunStats
	changes []sim.AreaChange
	err     error
}

// New builds an engine over the given workload provider.
func New(provider Provider, opts ...Option) *Engine {
	e := &Engine{
		provider:  provider,
		workloads: make(map[string]*workloadEntry),
		runs:      make(map[runKey]*runEntry),
	}
	e.defaults = options{base: sim.Default()}
	for _, opt := range opts {
		opt(&e.defaults)
	}
	e.ins = newInstruments(e.defaults.obs)
	return e
}

// Hits returns how many cells were served from the run cache (or
// coalesced onto an identical in-flight cell) instead of simulated.
func (e *Engine) Hits() uint64 { return e.hits.Load() }

// Misses returns how many cells were actually simulated.
func (e *Engine) Misses() uint64 { return e.misses.Load() }

// TraceHits returns how many single-pass groups replayed a fetch
// trace recorded by an earlier group of the same stream instead of
// executing the program. Their cells still count as Misses: they were
// simulated, only without re-running the CPU and data side.
func (e *Engine) TraceHits() uint64 { return e.traceHits.Load() }

// TraceMisses returns how many times the engine executed a program:
// single-pass groups that found no recording to replay or relocate,
// and OriginalTrace calls that had to record one.
func (e *Engine) TraceMisses() uint64 { return e.traceMisses.Load() }

// Relocations returns how many single-pass groups of a placed stream
// relocated the workload's original-layout recording instead of
// executing the placed binary.
func (e *Engine) Relocations() uint64 { return e.relocations.Load() }

// Groups returns how many multi-cell single-pass groups the engine
// has executed: batches of cells sharing one fetch stream that were
// simulated by one pass. Single-cell passes do not count.
func (e *Engine) Groups() uint64 { return e.groups.Load() }

// CoalescedCells returns how many fresh cells were simulated inside
// multi-cell groups — the cells that shared a fetch stream instead of
// re-executing the program.
func (e *Engine) CoalescedCells() uint64 { return e.coalesced.Load() }

// Run executes a batch of cells and returns their results in input
// order. Identical specs within the batch are simulated once; specs
// seen in earlier batches are served from the run cache. Fresh cells
// are planned into one single-pass group per fetch stream
// (RunSpec.Stream), each simulated by one pass driving every member's
// cache model off that stream: recorded live the first time (a placed
// stream relocated from its workload's original-layout recording when
// the engine holds one), replayed from the engine's trace table
// afterwards. A spec that fails
// RunSpec.Validate is never run. Per-cell failures (such a spec
// included) do not abort the grid: every runnable cell still runs, the
// failures come back as a *MultiError of *CellError, and the
// corresponding result slots are nil. Cancelling ctx stops the batch
// promptly, abandoning unstarted cells and interrupting in-flight
// instruction loops.
func (e *Engine) Run(ctx context.Context, specs []RunSpec, opts ...Option) ([]*Result, error) {
	opt := e.defaults
	for _, o := range opts {
		o(&opt)
	}
	workers := opt.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ins := e.ins
	if opt.obs != e.defaults.obs {
		ins = newInstruments(opt.obs)
	}
	// The persistent tier is keyed by RunSpec.Key, which does not
	// cover the base template; a batch overriding the engine's base
	// must not read or write it (results would alias across bases).
	tier := opt.store
	if opt.base != e.defaults.base {
		tier = nil
	}

	// Deduplicate the batch, preserving first-occurrence order.
	firstIdx := make(map[RunSpec]int, len(specs))
	var unique []RunSpec
	for _, s := range specs {
		if _, ok := firstIdx[s]; !ok {
			firstIdx[s] = len(unique)
			unique = append(unique, s)
		}
	}
	uniqueRes := make([]*Result, len(unique))
	uniqueErr := make([]error, len(unique))
	groupIDs := make([]string, len(unique))

	// Serialise progress callbacks and the done counter. Every unique
	// cell reports exactly once — failures included (Err non-nil) — so
	// Done always reaches Total and a -progress display never appears
	// hung on a grid with failing cells.
	var progMu sync.Mutex
	done := 0
	report := func(p Progress) {
		if opt.progress == nil {
			return
		}
		progMu.Lock()
		done++
		p.Done, p.Total = done, len(unique)
		opt.progress(p)
		progMu.Unlock()
	}

	// finish books one unique cell's outcome: verify, instruments,
	// result/error slot, progress. Shared by waiters and groups.
	finish := func(idx int, stats *sim.RunStats, changes []sim.AreaChange, hit bool, wall time.Duration, err error) {
		spec := unique[idx]
		if err == nil && opt.verify != nil {
			if verr := opt.verify(Resolve(opt.base, spec), stats); verr != nil {
				err = fmt.Errorf("%s: verify: %w", spec, verr)
			}
		}
		if err != nil {
			uniqueErr[idx] = err
			ins.failures.Inc()
			report(Progress{Spec: spec, Wall: wall, Err: err})
			return
		}
		r := &Result{Spec: spec, Stats: stats, AreaChanges: changes, CacheHit: hit, Wall: wall, GroupID: groupIDs[idx]}
		ins.cells.Inc()
		if !hit {
			ins.record(spec, stats, wall)
		}
		uniqueRes[idx] = r
		report(Progress{Spec: spec, Wall: wall, CacheHit: hit})
	}

	// runWait serves a cell whose key already has an in-flight or
	// finished entry — a cross-batch cache hit. It still books the hit
	// counters and fires the progress callback, so a display over a
	// half-memoized grid sees Done reach Total.
	runWait := func(idx int, ent *runEntry) {
		spec := unique[idx]
		select {
		case <-ent.done:
		case <-ctx.Done():
			err := ctx.Err()
			uniqueErr[idx] = err
			ins.failures.Inc()
			report(Progress{Spec: spec, Err: err})
			return
		}
		if ent.err != nil {
			uniqueErr[idx] = ent.err
			ins.failures.Inc()
			report(Progress{Spec: spec, Err: ent.err})
			return
		}
		e.hits.Add(1)
		ins.hits.Inc()
		finish(idx, ent.stats, ent.changes, true, 0, nil)
	}

	type member struct {
		idx int
		key runKey
		ent *runEntry
	}
	type group struct {
		stream  string // RunSpec.Stream of every member
		members []member
	}

	// runGroup executes one planned group: a single multi-model pass
	// over the shared fetch stream. Its entries were registered at
	// plan time, so it must settle every one of them on every path —
	// a waiter in another batch may be blocked on them.
	runGroup := func(g *group) {
		fail := func(err error) {
			e.mu.Lock()
			for _, m := range g.members {
				delete(e.runs, m.key)
			}
			e.mu.Unlock()
			for _, m := range g.members {
				spec := unique[m.idx]
				m.ent.err = fmt.Errorf("%s: %w", spec, err)
				close(m.ent.done)
				uniqueErr[m.idx] = m.ent.err
				ins.failures.Inc()
				report(Progress{Spec: spec, Err: m.ent.err})
			}
		}
		if err := ctx.Err(); err != nil {
			fail(err)
			return
		}
		if tier != nil {
			// Read-through: members already durable in the store are
			// settled without touching a simulator; the remainder — if
			// any — forms the single-pass group.
			remaining := g.members[:0]
			for _, m := range g.members {
				spec := unique[m.idx]
				if stats, changes, ok := tier.Load(spec.Key()); ok {
					m.ent.stats, m.ent.changes = stats, changes
					close(m.ent.done)
					e.hits.Add(1)
					ins.hits.Inc()
					groupIDs[m.idx] = "" // served from the store, not a pass
					finish(m.idx, stats, changes, true, 0, nil)
					continue
				}
				remaining = append(remaining, m)
			}
			g.members = remaining
			if len(g.members) == 0 {
				return
			}
		}
		e.misses.Add(uint64(len(g.members)))
		ins.misses.Add(uint64(len(g.members)))
		first := unique[g.members[0].idx]
		w, err := e.workload(ctx, first.Workload)
		if err != nil {
			fail(err)
			return
		}
		prog := w.Original
		if UsesPlaced(first) {
			prog = w.Placed
		}
		models := make([]sim.ModelSpec, len(g.members))
		for i, m := range g.members {
			models[i] = ModelOf(unique[m.idx], m.key.cfg)
		}
		ins.inflight.Add(float64(len(g.members)))
		start := time.Now()
		res, err := e.runStream(ctx, g.stream, w, prog, opt.base, models, ins)
		wall := time.Since(start)
		ins.inflight.Add(-float64(len(g.members)))
		if err != nil {
			// A producer-level failure (fault, budget, cancellation)
			// fails every member; per-model errors below fail only
			// their own cell.
			fail(err)
			return
		}
		if len(g.members) > 1 {
			e.groups.Add(1)
			ins.groups.Inc()
			e.coalesced.Add(uint64(len(g.members)))
			ins.coalesced.Add(uint64(len(g.members)))
		}
		// The pass's wall time is shared work: split it evenly so
		// per-cell walls still sum to real simulation time.
		share := wall / time.Duration(len(g.members))
		for i, m := range g.members {
			spec := unique[m.idx]
			if res[i].Err != nil {
				m.ent.err = fmt.Errorf("%s: %w", spec, res[i].Err)
				e.mu.Lock()
				delete(e.runs, m.key)
				e.mu.Unlock()
			} else {
				m.ent.stats, m.ent.changes = res[i].Stats, res[i].AreaChanges
				if tier != nil {
					// Write-behind: the durable copy is queued off the
					// hot path; losing it to a crash only costs a
					// deterministic re-simulation.
					tier.Save(spec.Key(), m.ent.stats, m.ent.changes)
				}
			}
			close(m.ent.done)
			finish(m.idx, m.ent.stats, m.ent.changes, false, share, m.ent.err)
		}
	}

	// A spec that breaks a cell rule is not a cell of the grid: it
	// fails here, before planning, so it is never simulated and never
	// enters the run cache or the store.
	for idx, spec := range unique {
		if err := spec.Validate(); err != nil {
			uniqueErr[idx] = err
			ins.failures.Inc()
			report(Progress{Spec: spec, Err: err})
		}
	}

	// Plan the batch. Under the engine lock each unique cell either
	// joins an existing run entry (a waiter: some earlier batch — or
	// this planning pass — owns the simulation) or registers a fresh
	// entry and is assigned to the single-pass group of its stream
	// (RunSpec.Stream). Group membership follows unique order,
	// so the model list — and therefore the output — is deterministic
	// regardless of worker count.
	var tasks []func()
	var order []*group
	byStream := make(map[string]*group)
	e.mu.Lock()
	for idx, spec := range unique {
		if uniqueErr[idx] != nil {
			continue
		}
		key := runKey{workload: spec.Workload, cfg: Resolve(opt.base, spec), adaptive: spec.Adaptive}
		if ent, ok := e.runs[key]; ok {
			tasks = append(tasks, func() { runWait(idx, ent) })
			continue
		}
		ent := &runEntry{done: make(chan struct{})}
		e.runs[key] = ent
		stream := spec.Stream()
		g := byStream[stream]
		if g == nil {
			g = &group{stream: stream}
			byStream[stream] = g
			order = append(order, g)
		}
		g.members = append(g.members, member{idx: idx, key: key, ent: ent})
	}
	e.mu.Unlock()
	// A workload's placed group runs in its original group's task,
	// right after it, so that it relocates the recording the original
	// group has just made instead of executing its own binary.
	for _, g := range order {
		for _, m := range g.members {
			groupIDs[m.idx] = g.stream
		}
		w := unique[g.members[0].idx].Workload
		switch placed, orig := byStream[w+"/placed"], byStream[w+"/original"]; {
		case g == orig && placed != nil:
			tasks = append(tasks, func() { runGroup(orig); runGroup(placed) })
		case g == placed && orig != nil:
			// Queued with the original group.
		default:
			tasks = append(tasks, func() { runGroup(g) })
		}
	}

	if workers > len(tasks) {
		workers = len(tasks)
	}
	jobs := make(chan func())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range jobs {
				task()
			}
		}()
	}
	for _, t := range tasks {
		jobs <- t
	}
	close(jobs)
	wg.Wait()

	// Assemble per-input results; duplicate occurrences share the
	// memoised stats and are marked as cache hits.
	results := make([]*Result, len(specs))
	occurrences := make(map[RunSpec]int, len(firstIdx))
	var merr MultiError
	for i, s := range specs {
		u := firstIdx[s]
		if uniqueErr[u] != nil {
			if occurrences[s] == 0 {
				merr.Errors = append(merr.Errors, &CellError{Spec: s, Err: uniqueErr[u]})
			}
			occurrences[s]++
			continue
		}
		r := uniqueRes[u]
		if occurrences[s] == 0 {
			results[i] = r
		} else {
			e.hits.Add(1)
			ins.hits.Inc()
			ins.cells.Inc()
			results[i] = &Result{Spec: s, Stats: r.Stats, AreaChanges: r.AreaChanges, CacheHit: true, GroupID: r.GroupID}
		}
		occurrences[s]++
	}
	if len(merr.Errors) > 0 {
		return results, &merr
	}
	return results, nil
}

// runStream executes one group's pass over prog, w's binary for the
// stream: a replay when the engine holds a trace of the stream;
// otherwise, for the placed stream, a relocation of the trace of w's
// original stream when the engine holds that; otherwise a live pass.
// A relocation or live pass records the stream. Only complete,
// successful passes are recorded, so a fault, an exhausted budget or a
// cancellation re-executes (and re-raises) next time.
func (e *Engine) runStream(ctx context.Context, stream string, w *Workload, prog *obj.Program, base sim.Config, models []sim.ModelSpec, ins instruments) ([]*sim.ModelResult, error) {
	key := traceKey{stream: stream, cfg: sim.StreamConfigOf(base)}
	if tr := e.traces.get(key); tr != nil {
		e.traceHits.Add(1)
		ins.traceHits.Inc()
		return sim.ReplayMulti(ctx, tr, prog, base, models)
	}
	var res []*sim.ModelResult
	var tr *sim.FetchTrace
	var err error
	origKey := traceKey{stream: w.Name + "/original", cfg: key.cfg}
	if orig := e.traces.get(origKey); orig != nil && key != origKey {
		e.relocations.Add(1)
		ins.relocs.Inc()
		res, tr, err = sim.RelocateMulti(ctx, orig, prog, base, models)
	} else {
		e.traceMisses.Add(1)
		ins.traceMiss.Inc()
		res, tr, err = sim.RecordMulti(ctx, prog, base, models)
	}
	if tr != nil {
		ins.traceSize.Set(float64(e.traces.put(key, tr)))
	}
	return res, err
}

// OriginalTrace returns the engine's recording of the named workload's
// original-layout stream under its default base configuration, first
// recording it, with one model on the base's I-cache, when the trace
// table lacks it. Any other layout of the workload's unit replays it
// relocated (sim.ReplayMulti), and a profile of the evaluation input
// reads off its instruction counts (sim.FetchTrace.InstrCounts), so
// layouts outside the cell grid need no execution of their own.
func (e *Engine) OriginalTrace(ctx context.Context, workload string) (*sim.FetchTrace, error) {
	w, err := e.workload(ctx, workload)
	if err != nil {
		return nil, err
	}
	base := e.defaults.base
	key := traceKey{stream: workload + "/original", cfg: sim.StreamConfigOf(base)}
	if tr := e.traces.get(key); tr != nil {
		return tr, nil
	}
	res, err := e.runStream(ctx, key.stream, w, w.Original, base, []sim.ModelSpec{sim.ModelSpecOf(base)}, e.ins)
	if err == nil {
		err = res[0].Err
	}
	tr := e.traces.get(key)
	if err == nil && tr == nil {
		err = errors.New("the pass recorded no trace")
	}
	if err != nil {
		return nil, fmt.Errorf("engine: recording %s: %w", key.stream, err)
	}
	return tr, nil
}

// RunOne executes a single cell.
func (e *Engine) RunOne(ctx context.Context, spec RunSpec, opts ...Option) (*Result, error) {
	res, err := e.Run(ctx, []RunSpec{spec}, opts...)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Prepare forces the once-per-workload profile-and-relink stage for
// every named workload, fanning out over the worker pool. It is
// optional — Run prepares workloads lazily — but lets callers front a
// batch with a parallel preparation phase and surface errors early.
func (e *Engine) Prepare(ctx context.Context, names []string, opts ...Option) error {
	opt := e.defaults
	for _, o := range opts {
		o(&opt)
	}
	workers := opt.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}
	errs := make([]error, len(names))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if err := ctx.Err(); err != nil {
					errs[idx] = err
					continue
				}
				_, errs[idx] = e.workload(ctx, names[idx])
			}
		}()
	}
	for idx := range names {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	var merr MultiError
	for i, err := range errs {
		if err != nil {
			merr.Errors = append(merr.Errors, fmt.Errorf("prepare %s: %w", names[i], err))
		}
	}
	if len(merr.Errors) > 0 {
		return &merr
	}
	return nil
}

// workload returns the memoised prepared workload, invoking the
// provider at most once per name. Concurrent cells for the same
// workload wait for a single preparation instead of duplicating the
// profile/layout work.
func (e *Engine) workload(ctx context.Context, name string) (*Workload, error) {
	e.mu.Lock()
	if ent, ok := e.workloads[name]; ok {
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return ent.w, ent.err
	}
	ent := &workloadEntry{done: make(chan struct{})}
	e.workloads[name] = ent
	e.mu.Unlock()

	start := time.Now()
	ent.w, ent.err = e.provider(ctx, name)
	if ent.err == nil {
		e.ins.prepareNS.ObserveSince(start)
	}
	if ent.err == nil && (ent.w == nil || ent.w.Original == nil) {
		ent.err = fmt.Errorf("engine: provider returned no programs for %q", name)
	}
	if ent.err == nil && ent.w.Placed == nil {
		// A provider may omit the relaid binary when only hardware
		// schemes are evaluated; way-placement cells then fail clearly.
		ent.w.Placed = ent.w.Original
	}
	if ent.err != nil {
		e.mu.Lock()
		delete(e.workloads, name)
		e.mu.Unlock()
	}
	close(ent.done)
	return ent.w, ent.err
}
