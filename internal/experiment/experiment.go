// Package experiment reproduces the paper's evaluation: it prepares
// every benchmark exactly as section 5 describes (profile on the
// small input, relink with the way-placement layout, evaluate on the
// large input) and regenerates each figure of section 6.
//
// Binary selection per scheme follows the paper: the baseline and the
// way-memoization machines run the unmodified (original-layout)
// binary — way-memoization is a pure-hardware scheme — while the
// way-placement machine runs the relaid binary.
//
// All simulation cells are scheduled through internal/engine: a
// worker-pool scheduler with a memoised run cache, so the baseline
// cells shared between figures are simulated exactly once and grids
// execute in parallel. Aggregation happens in workload order after
// the grid completes, so every figure is byte-identical regardless of
// the worker count.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wayplace/internal/api"
	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/engine"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/profile"
	"wayplace/internal/sim"
)

// TextBase is where program images are linked. It is aligned to the
// largest cache and page size in any experiment, so a way-placement
// area starting at the base maps cleanly onto the cache.
const TextBase = 0x0001_0000

// MaxInstrs bounds any single evaluation run.
const MaxInstrs = 100_000_000

// Workload is one prepared benchmark.
type Workload struct {
	Name     string
	Unit     *obj.Unit // large-input object unit (for relayout ablations)
	Profile  *profile.Profile
	Original *obj.Program // original layout (baseline & way-memoization)
	Placed   *obj.Program // way-placement layout
	// ProfCoverage16K is the profiled fraction of dynamic
	// instructions inside the first 16KB after relayout.
	ProfCoverage16K float64
}

// Prepare builds, profiles and links one benchmark.
func Prepare(name string) (*Workload, error) {
	bm, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	smallUnit, err := bm.Build(bench.Small)
	if err != nil {
		return nil, fmt.Errorf("%s: build small: %w", name, err)
	}
	largeUnit, err := bm.Build(bench.Large)
	if err != nil {
		return nil, fmt.Errorf("%s: build large: %w", name, err)
	}
	smallProg, err := layout.LinkOriginal(smallUnit, TextBase)
	if err != nil {
		return nil, fmt.Errorf("%s: link small: %w", name, err)
	}
	prof, _, err := sim.ProfileRun(smallProg, MaxInstrs)
	if err != nil {
		return nil, fmt.Errorf("%s: profile: %w", name, err)
	}
	orig, err := layout.LinkOriginal(largeUnit, TextBase)
	if err != nil {
		return nil, fmt.Errorf("%s: link original: %w", name, err)
	}
	placed, err := layout.Link(largeUnit, prof, TextBase)
	if err != nil {
		return nil, fmt.Errorf("%s: way-placement link: %w", name, err)
	}
	return &Workload{
		Name:            name,
		Unit:            largeUnit,
		Profile:         prof,
		Original:        orig,
		Placed:          placed,
		ProfCoverage16K: layout.Coverage(placed, prof, 16<<10),
	}, nil
}

// Runner executes a grid of cells and returns results in input order.
// engine.Engine is the local implementation; serve.RemoteRunner runs
// the same grids against a wpserved instance, so figure sweeps can be
// shared, batched and cached across processes.
type Runner interface {
	Run(ctx context.Context, specs []engine.RunSpec, opts ...engine.Option) ([]*engine.Result, error)
}

// Suite is the prepared benchmark suite wired onto the concurrent
// experiment engine.
type Suite struct {
	Workloads []*Workload
	Base      sim.Config // machine template; I-cache geometry varies

	eng    *engine.Engine
	runner Runner
	mu     sync.Mutex
	byName map[string]*Workload
}

// NewSuite prepares every benchmark (in parallel).
func NewSuite(opts ...engine.Option) (*Suite, error) {
	return NewSuiteOf(bench.Names(), opts...)
}

// NewSuiteOf prepares a subset of benchmarks by name. Engine options
// (engine.WithWorkers, engine.WithProgress, ...) become the defaults
// for every grid the suite runs.
func NewSuiteOf(names []string, opts ...engine.Option) (*Suite, error) {
	s := &Suite{Base: sim.Default(), byName: make(map[string]*Workload, len(names))}
	s.eng = engine.New(s.provide, append([]engine.Option{engine.WithBaseConfig(s.machine())}, opts...)...)
	if err := s.eng.Prepare(context.Background(), names); err != nil {
		return nil, err
	}
	s.Workloads = make([]*Workload, len(names))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, name := range names {
		s.Workloads[i] = s.byName[name]
	}
	return s, nil
}

// machine is the base configuration the suite's cells resolve
// against (engine.Resolve): the template with the evaluation's
// instruction budget.
func (s *Suite) machine() sim.Config {
	base := s.Base
	base.MaxInstrs = MaxInstrs
	return base
}

// provide is the engine's workload provider: the full preparation
// pipeline (build, profile, relink), memoised per name by the engine
// so concurrent cells never duplicate profile/layout work.
func (s *Suite) provide(ctx context.Context, name string) (*engine.Workload, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w, err := Prepare(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.byName[name] = w
	s.mu.Unlock()
	return &engine.Workload{Name: name, Original: w.Original, Placed: w.Placed}, nil
}

// Engine exposes the underlying scheduler (run-cache counters,
// ad hoc grids).
func (s *Suite) Engine() *engine.Engine { return s.eng }

// SetRunner routes standard grids (those run without per-batch engine
// options) through an alternative executor — typically a
// serve.RemoteRunner pointing at a wpserved instance, whose shared
// engine keeps its run cache warm across client processes. Batches
// that carry per-batch options (bespoke base configurations, extra
// callbacks) cannot be expressed remotely and keep running on the
// local engine. A nil runner restores fully local execution.
func (s *Suite) SetRunner(r Runner) { s.runner = r }

// RunSpec executes one simulation cell, returning the result with
// wall time and cache-hit provenance.
func (s *Suite) RunSpec(ctx context.Context, spec engine.RunSpec) (*engine.Result, error) {
	res, err := s.RunBatch(ctx, []engine.RunSpec{spec})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunBatch executes a grid of cells in parallel, with results in
// input order: on the installed Runner when one is set and the batch
// carries no per-batch options, on the local engine otherwise.
func (s *Suite) RunBatch(ctx context.Context, specs []engine.RunSpec, opts ...engine.Option) ([]*engine.Result, error) {
	if s.runner != nil && len(opts) == 0 {
		return s.runner.Run(ctx, specs)
	}
	return s.eng.Run(ctx, specs, opts...)
}

// RunRequests executes a grid described in the wire schema
// (api.RunRequest) — the form the CLIs parse flags into and wpserved
// accepts over HTTP — after field-level validation.
func (s *Suite) RunRequests(ctx context.Context, reqs []api.RunRequest, opts ...engine.Option) ([]*engine.Result, error) {
	specs, err := api.ToSpecs(reqs)
	if err != nil {
		return nil, err
	}
	return s.RunBatch(ctx, specs, opts...)
}

// WarmupSpecs returns the union of every standard grid the suite's
// figures, extensions and flag ablations submit: the whole evaluation
// expressed as one batch. Submitting it up front lets the engine's
// single-pass grouping coalesce all cells that share a workload and
// fetch stream — roughly two producer passes per workload per cache
// geometry instead of one per cell — after which every individual
// section is a pure run-cache hit. The engine deduplicates cells
// repeated across grids, so the overlap between figures is free.
func (s *Suite) WarmupSpecs() []engine.RunSpec {
	var specs []engine.RunSpec
	specs = append(specs, s.fig4Specs()...)
	specs = append(specs, s.fig5Specs()...)
	specs = append(specs, s.fig6Specs()...)
	specs = append(specs, s.ramTagSpecs()...)
	specs = append(specs, s.adaptiveSpecs()...)
	for _, v := range hintVariants() {
		specs = append(specs, s.variantSpecs(v)...)
	}
	for _, v := range sameLineVariants() {
		specs = append(specs, s.variantSpecs(v)...)
	}
	for _, v := range replacementVariants() {
		specs = append(specs, s.variantSpecs(v)...)
	}
	return specs
}

// forEach runs fn over all workloads in parallel (for ablation and
// extension variants that fall outside the engine's cell grid),
// stopping new work once ctx is cancelled and collecting errors.
func (s *Suite) forEach(ctx context.Context, fn func(context.Context, *Workload) error) error {
	errs := make([]error, len(s.Workloads))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workerCount())
	for i, w := range s.Workloads {
		wg.Add(1)
		go func(i int, w *Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(ctx, w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func workerCount() int { return runtime.GOMAXPROCS(0) }

// XScaleICache is the initial evaluation's I-cache: 32KB, 32-way.
func XScaleICache() cache.Config {
	return cache.Config{SizeBytes: 32 << 10, Ways: 32, LineBytes: 32, Policy: cache.RoundRobin}
}

// InitialWPSize is the initial evaluation's way-placement area: 16KB.
const InitialWPSize = 16 << 10
