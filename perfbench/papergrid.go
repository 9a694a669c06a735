package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"wayplace/internal/check"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// The paper grid's deterministic shape: what one full evaluation on a
// fresh engine must do, whatever the host.
const (
	gridCells     = 3358
	gridSimulated = 1104
	gridHits      = 2254
	gridGroups    = 46
	gridInstrs    = 1_765_628_400
	// gridDigest digests the modelled statistics of the 1104 simulated
	// cells (modelSummary).
	gridDigest = 0x5d5bb284b883
)

// setupRepeats is how many times a workload sets up before its timed
// phase; setup_s is the median of these. Set-up is short and shares the
// host with everything else, so a single sample is too noisy to gate on,
// and the first few in a process are slower (a cold heap), so the median
// needs enough samples to fall past them.
const setupRepeats = 11

// recorder is the suite's Runner: it forwards every standard grid to
// the suite's own engine, unchanged, and keeps each call's results and
// wall time for the output checks and the engine layer metrics.
type recorder struct {
	eng *engine.Engine

	mu   sync.Mutex
	runs []recordedRun
}

type recordedRun struct {
	results []*engine.Result
	wall    time.Duration
}

func (r *recorder) Run(ctx context.Context, specs []engine.RunSpec, opts ...engine.Option) ([]*engine.Result, error) {
	t0 := time.Now()
	res, err := r.eng.Run(ctx, specs, opts...)
	wall := time.Since(t0)
	r.mu.Lock()
	r.runs = append(r.runs, recordedRun{results: res, wall: wall})
	r.mu.Unlock()
	return res, err
}

// fresh returns every simulated (non-hit) result of the recorded calls
// and, for each, the index of the call it came from.
func (r *recorder) fresh() ([]*engine.Result, []int) {
	var out []*engine.Result
	var call []int
	for i, run := range r.runs {
		for _, res := range run.results {
			if res != nil && !res.CacheHit {
				out = append(out, res)
				call = append(call, i)
			}
		}
	}
	return out, call
}

// gridSuite is one prepared suite on a fresh engine.
type gridSuite struct {
	suite *experiment.Suite
	rec   *recorder
}

// newGridSuite prepares all 23 benchmarks exactly as wpbench does
// (build, profile on the small input, relink), on a fresh engine with
// the invariant checker on every cell.
func newGridSuite(verify func(sim.Config, *sim.RunStats) error) (gridSuite, time.Duration, error) {
	t0 := time.Now()
	s, err := experiment.NewSuite(engine.WithWorkers(0), engine.WithVerify(verify))
	if err != nil {
		return gridSuite{}, 0, err
	}
	took := time.Since(t0)
	rec := &recorder{eng: s.Engine()}
	s.SetRunner(rec)
	return gridSuite{suite: s, rec: rec}, took, nil
}

// gridSections are the timed parts of one evaluation, in seconds.
type gridSections struct {
	warmup, sections, transfer, layout float64
}

// evaluate runs the whole evaluation in wpbench's order: the
// single-pass warmup batch, every figure (with its CSV), the
// extensions and the ablations. Section failures are output-check
// failures; the remaining sections still run.
func evaluate(ctx context.Context, s *experiment.Suite, o *outcome) (map[string][]byte, gridSections) {
	var sec gridSections
	csvs := map[string][]byte{}
	timed := func(dst *float64, name string, f func() error) {
		t0 := time.Now()
		err := f()
		*dst += time.Since(t0).Seconds()
		if err != nil {
			o.fail("paper-grid: %s: %v", name, err)
		}
	}
	csv := func(name string, emit func(io.Writer) error) error {
		var b bytes.Buffer
		if err := emit(&b); err != nil {
			return err
		}
		csvs[name] = b.Bytes()
		return nil
	}
	timed(&sec.warmup, "single-pass warmup", func() error {
		_, err := s.RunBatch(ctx, s.WarmupSpecs())
		return err
	})
	timed(&sec.sections, "figure 4", func() error {
		r, err := s.Figure4(ctx)
		if err != nil {
			return err
		}
		_ = experiment.FormatFig4(r)
		return csv("fig4.csv", func(w io.Writer) error { return experiment.CSVFig4(w, r) })
	})
	timed(&sec.sections, "figure 5", func() error {
		r, err := s.Figure5(ctx)
		if err != nil {
			return err
		}
		_ = experiment.FormatFig5(r)
		return csv("fig5.csv", func(w io.Writer) error { return experiment.CSVFig5(w, r) })
	})
	timed(&sec.sections, "figure 6", func() error {
		r, err := s.Figure6(ctx)
		if err != nil {
			return err
		}
		_ = experiment.FormatFig6(r)
		return csv("fig6.csv", func(w io.Writer) error { return experiment.CSVFig6(w, r) })
	})
	timed(&sec.sections, "extension: RAM-tag arrays", func() error {
		rows, err := s.ExtensionRAMTag(ctx)
		_ = experiment.FormatRAMTag(rows)
		return err
	})
	timed(&sec.sections, "extension: adaptive area", func() error {
		rows, err := s.ExtensionAdaptive(ctx)
		_ = experiment.FormatAdaptive(rows)
		return err
	})
	timed(&sec.transfer, "extension: profile transfer", func() error {
		rows, err := s.ExtensionProfileTransfer(ctx)
		_ = experiment.FormatTransfer(rows)
		return err
	})
	ablations := []struct {
		title string
		dst   *float64
		fn    func(context.Context) ([]experiment.AblationRow, error)
	}{
		{"code layout", &sec.layout, s.AblationLayout},
		{"way-hint prediction", &sec.sections, s.AblationHint},
		{"same-line tag skip", &sec.sections, s.AblationSameLine},
		{"replacement policy", &sec.sections, s.AblationReplacement},
	}
	for _, a := range ablations {
		timed(a.dst, "ablation: "+a.title, func() error {
			rows, err := a.fn(ctx)
			_ = experiment.FormatAblation(a.title, rows)
			return err
		})
	}
	return csvs, sec
}

// checkGrid holds one evaluation to the paper's committed results and
// the grid's deterministic shape, and returns its simulated cells.
func checkGrid(o *outcome, g gridSuite, csvs, golden map[string][]byte) []keyedStats {
	for name, want := range golden {
		if !bytes.Equal(csvs[name], want) {
			o.fail("paper-grid: %s differs from the committed results", name)
		}
	}
	eng := g.suite.Engine()
	shape := []struct {
		what      string
		got, want uint64
	}{
		{"cells", eng.Hits() + eng.Misses(), gridCells},
		{"simulated cells", eng.Misses(), gridSimulated},
		{"run-cache hits", eng.Hits(), gridHits},
		{"single-pass groups", eng.Groups(), gridGroups},
		{"coalesced cells", eng.CoalescedCells(), gridSimulated},
	}
	for _, s := range shape {
		if s.got != s.want {
			o.fail("paper-grid: %d %s, want %d", s.got, s.what, s.want)
		}
	}
	fresh, _ := g.rec.fresh()
	var instrs uint64
	cells := make([]keyedStats, len(fresh))
	for i, r := range fresh {
		instrs += r.Stats.Instrs
		cells[i] = keyedStats{Key: r.Spec.Key(), Stats: r.Stats}
	}
	if instrs != gridInstrs {
		o.fail("paper-grid: %d simulated instructions, want %d", instrs, gridInstrs)
	}
	return cells
}

func readGolden(dir string) (map[string][]byte, error) {
	golden := map[string][]byte{}
	for _, name := range []string{"fig4.csv", "fig5.csv", "fig6.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("committed results: %w", err)
		}
		golden[name] = b
	}
	return golden, nil
}

// runPaperGrid is the full 23-benchmark evaluation, in-process, each
// pass on a fresh engine. Set-up is experiment.NewSuite; the timed
// part is everything wpbench runs after it.
func runPaperGrid(ctx context.Context, cfg runConfig) (*outcome, error) {
	golden, err := readGolden(cfg.Results)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var setups []float64
	var ready gridSuite
	for i := 0; i < setupRepeats; i++ {
		g, took, err := newGridSuite(check.VerifyCell)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		ready = g
	}

	var m meter
	var cells int
	var passSetups, walls, rates, cpuPer, warmups, sections, transfers, layouts []float64
	var lastCells []keyedStats
	for pass := 0; ; pass++ {
		g := ready
		ready = gridSuite{}
		if pass > 0 {
			var took time.Duration
			if g, took, err = newGridSuite(check.VerifyCell); err != nil {
				return nil, err
			}
			// Not part of setup_s: these run on a warmer process, and
			// how many there are depends on the host's speed.
			passSetups = append(passSetups, took.Seconds())
		}
		before, beforeCPU := m.Wall, m.CPU
		m.start()
		csvs, sec := evaluate(ctx, g.suite, o)
		m.stop()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		walls = append(walls, (m.Wall - before).Seconds())
		warmups = append(warmups, sec.warmup)
		sections = append(sections, sec.sections)
		transfers = append(transfers, sec.transfer)
		layouts = append(layouts, sec.layout)
		o.Attempted += gridCells
		passCells := int(g.suite.Engine().Hits() + g.suite.Engine().Misses())
		cells += passCells
		rates = append(rates, float64(passCells)/walls[len(walls)-1])
		cpuPer = append(cpuPer, float64(m.CPU-beforeCPU)/float64(time.Millisecond)/float64(passCells))
		lastCells = checkGrid(o, g, csvs, golden)
		// Start another pass only if it is expected to end in time.
		if m.Wall+m.Wall/time.Duration(pass+1) > cfg.Seconds {
			break
		}
	}
	model := checkModel(o, "paper-grid", lastCells, gridDigest)

	meanPerS, meanCPUPerCell := m.perCell(cells)
	cellsPerS := upperQuartile(rates)
	o.E2E["setup_s"] = median(setups)
	o.E2E["cells_per_s"] = cellsPerS
	o.Detail["mean_cells_per_s"] = meanPerS
	o.E2E["cpu_ms_per_cell"] = median(cpuPer)
	o.Detail["mean_cpu_ms_per_cell"] = meanCPUPerCell
	o.Detail["passes"] = len(walls)
	o.Detail["pass_wall_s"] = walls
	o.Detail["setup_samples_s"] = setups
	o.Detail["pass_setup_samples_s"] = passSetups
	o.Detail["sim_minstr_per_s"] = float64(gridInstrs) * float64(len(walls)) / m.Wall.Seconds() / 1e6
	if !cfg.Trace {
		return o, nil
	}

	L := o.Layers
	for k, v := range model {
		L[k] = v
	}
	L["sim.minstr_per_s"] = o.Detail["sim_minstr_per_s"].(float64)
	L["experiment.prepare_s"] = median(setups)
	L["experiment.warmup_s"] = median(warmups)
	L["experiment.sections_s"] = median(sections)
	L["experiment.profile_transfer_s"] = median(transfers)
	L["experiment.layout_ablation_s"] = median(layouts)
	L["host.alloc_bytes_per_cell"] = float64(m.Alloc) / float64(cells)
	L["host.gc_cycles"] = float64(m.GCs)

	// Traced pass: the same evaluation with the checker timed through
	// engine.WithVerify and every engine call timed by the recorder.
	vt := &verifyTimer{}
	g, _, err := newGridSuite(vt.verify)
	if err != nil {
		return nil, err
	}
	var tm meter
	tm.start()
	csvs, _ := evaluate(ctx, g.suite, o)
	tm.stop()
	o.Attempted += gridCells
	checkGrid(o, g, csvs, golden)
	tracedPerS, _ := tm.perCell(gridCells)
	L["trace.overhead_pct"] = 100 * (cellsPerS/tracedPerS - 1)
	vt.report(L)

	eng := g.suite.Engine()
	L["engine.cells"] = float64(eng.Hits() + eng.Misses())
	L["engine.hits"] = float64(eng.Hits())
	L["engine.misses"] = float64(eng.Misses())
	L["engine.hit_ratio"] = float64(eng.Hits()) / float64(eng.Hits()+eng.Misses())
	L["engine.groups"] = float64(eng.Groups())
	L["engine.coalesced_cells"] = float64(eng.CoalescedCells())
	if eng.Groups() > 0 {
		L["engine.cells_per_group"] = float64(eng.CoalescedCells()) / float64(eng.Groups())
	}
	fresh, call := g.rec.fresh()
	var runWall, simWall time.Duration
	for _, run := range g.rec.runs {
		runWall += run.wall
	}
	for _, r := range fresh {
		simWall += r.Wall
	}
	// Engine.Run wall, summed over calls, minus its groups' simulation
	// time spread over the workers: planning, dispatch, verification,
	// bookkeeping and idle workers at the tail of a batch.
	L["engine.overhead_s"] = runWall.Seconds() - simWall.Seconds()/float64(workers())

	byName := map[string]*experiment.Workload{}
	var names []string
	for _, w := range g.suite.Workloads {
		byName[w.Name] = w
		names = append(names, w.Name)
	}
	groups := groupsOf(baseConfig(), fresh,
		func(i int) string { return strconv.Itoa(call[i]) },
		func(name string) (*obj.Program, *obj.Program) { return byName[name].Original, byName[name].Placed })
	if err := simDecompose(ctx, baseConfig(), groups, L); err != nil {
		return nil, err
	}
	if err := prepareSteps(names, L); err != nil {
		return nil, err
	}
	return o, nil
}
