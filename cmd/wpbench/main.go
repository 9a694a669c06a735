// Command wpbench regenerates the paper's evaluation: Table 1 and
// figures 4, 5 and 6. With no flags it runs everything.
//
// Simulation cells are scheduled on the concurrent experiment engine
// (internal/engine): -jobs caps the worker pool, -progress streams
// per-cell completions, and overlapping cells between figures are
// simulated once and served from the run cache thereafter. Cells that
// share a workload and fetch stream execute as single-pass multi-model
// groups; a full run submits the union of every grid as a warmup batch
// first, so the whole evaluation costs roughly two producer passes per
// workload. Output is byte-identical for every -jobs value.
//
// Every simulation cell is additionally passed through the runtime
// invariant checker (internal/check): a run whose statistics violate
// the conservation laws fails its cell rather than silently feeding a
// figure. -selfcheck goes further and runs the full differential
// harness — every benchmark under every scheme variant on the Large
// input, demanding architectural equivalence — plus a check that the
// figure 4/5 CSVs the grouped engine renders are byte-identical to the
// same figures computed cell by cell through the coupled reference
// loop, exiting non-zero on any violation.
//
// Observability (internal/obs): -metrics writes the engine's
// counters, gauges and latency histograms at exit (Prometheus text,
// or JSON for .json paths), -snapshot writes the machine-readable
// run record (BENCH_wpbench.json: grid shape, wall time, cells/sec,
// run-cache hit ratio, per-section timings), and -pprof serves
// net/http/pprof. Metrics never perturb results: figure output is
// byte-identical with and without them, and with neither flag set the
// engine runs with a nil registry that costs nothing per cell.
//
// Usage:
//
//	wpbench [-table1] [-fig4] [-fig5] [-fig6] [-ablations] [-extensions]
//	        [-selfcheck] [-benchmarks a,b,c] [-csv dir] [-jobs N] [-progress]
//	        [-metrics file] [-snapshot file] [-pprof addr]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"wayplace/internal/bench"
	"wayplace/internal/check"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
)

// exitCode aggregates emitter failures: a broken figure no longer
// hides the remaining figures, but the process still reports failure
// to CI.
var exitCode int

// sections collects per-phase wall times (prepare, each figure /
// ablation / extension) for the -snapshot record.
var sections []obs.Section

func main() {
	table1 := flag.Bool("table1", false, "print the baseline configuration table")
	fig4 := flag.Bool("fig4", false, "reproduce figure 4 (initial evaluation)")
	fig5 := flag.Bool("fig5", false, "reproduce figure 5 (way-placement area sweep)")
	fig6 := flag.Bool("fig6", false, "reproduce figure 6 (cache parameter sweep)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations")
	extensions := flag.Bool("extensions", false, "run the RAM-tag and adaptive-area extensions")
	selfcheck := flag.Bool("selfcheck", false, "run the differential self-check suite and exit")
	subset := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 23)")
	csvDir := flag.String("csv", "", "also write figN.csv files into this directory")
	jobs := flag.Int("jobs", 0, "simulation cells to run concurrently (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "report per-cell progress on stderr")
	metricsOut := flag.String("metrics", "", `write engine metrics to this file at exit ("-" for stderr; a .json path selects JSON, anything else Prometheus text)`)
	snapshotOut := flag.String("snapshot", "", "write the machine-readable run snapshot (BENCH_wpbench.json format) to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	server := flag.String("server", "", "run standard grids on this wpserved instance (e.g. http://127.0.0.1:8100) so concurrent sweeps share one run cache")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "wpbench: pprof: %v\n", err)
			}
		}()
	}

	all := !*table1 && !*fig4 && !*fig5 && !*fig6 && !*ablations && !*extensions && !*selfcheck
	// Validate the benchmark subset up front: a typo or stray
	// whitespace fails here with the valid names, not deep inside the
	// workload provider as a per-cell error.
	names, err := bench.ParseSubset(*subset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpbench: %v\n", err)
		os.Exit(2)
	}

	if *selfcheck {
		os.Exit(runSelfCheck(ctx, names, *jobs))
	}

	if *table1 || all {
		fmt.Print(experiment.Table1(experiment.XScaleICache()))
		fmt.Println()
	}
	if !*fig4 && !*fig5 && !*fig6 && !*ablations && !*extensions && !all {
		return
	}

	// The registry exists only when an observability output was
	// requested; otherwise the engine sees nil and the per-cell path
	// pays nothing.
	var reg *obs.Registry
	if *metricsOut != "" || *snapshotOut != "" {
		reg = obs.NewRegistry()
	}

	opts := []engine.Option{
		engine.WithWorkers(*jobs),
		engine.WithVerify(check.VerifyCell),
		engine.WithObserver(reg),
	}
	if *progress {
		opts = append(opts, engine.WithProgress(func(p engine.Progress) {
			// Failed cells report too (engine.Progress.Err), so the
			// counter always reaches Total instead of appearing hung.
			if p.Err != nil {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s FAILED: %v\n",
					p.Done, p.Total, p.Spec, p.Err)
				return
			}
			cached := ""
			if p.CacheHit {
				cached = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %v%s\n",
				p.Done, p.Total, p.Spec, p.Wall.Round(time.Millisecond), cached)
		}))
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "preparing %d benchmarks (build, profile, relink)...\n", len(names))
	suite, err := experiment.NewSuiteOf(names, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpbench: %v\n", err)
		os.Exit(1)
	}
	prepared := time.Since(start)
	sections = append(sections, obs.Section{Name: "prepare", Seconds: prepared.Seconds()})
	fmt.Fprintf(os.Stderr, "prepared in %v\n", prepared.Round(time.Millisecond))

	if *server != "" {
		// Standard grids — every figure, the RAM-tag and adaptive
		// extensions, the flag ablations and the warmup batch — execute
		// on the shared server engine; only the layout ablation and the
		// profile-transfer extension (custom binaries) stay local. The
		// aggregation path is identical either way, so figure and CSV
		// output is byte-for-byte the same as an offline run.
		client := serve.NewClient(*server)
		if _, err := client.Health(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "wpbench: -server %s: %v\n", *server, err)
			os.Exit(1)
		}
		suite.SetRunner(serve.NewRemoteRunner(client))
		fmt.Fprintf(os.Stderr, "standard grids run on %s (shared run cache)\n", *server)
	}

	if all {
		// Full evaluation: submit the union of every grid first. The
		// engine coalesces all cells sharing a workload and fetch stream
		// into single-pass multi-model groups — roughly two producer
		// passes per workload instead of one per cell — and every figure
		// section below becomes a run-cache hit.
		run("single-pass warmup", func() (string, error) {
			specs := suite.WarmupSpecs()
			res, err := suite.RunBatch(ctx, specs)
			if err != nil {
				return "", err
			}
			groups := map[string]bool{}
			cached := 0
			for _, r := range res {
				if r.GroupID != "" {
					groups[r.GroupID] = true
				}
				if r.CacheHit {
					cached++
				}
			}
			return fmt.Sprintf("warmup: %d cells (%d unique) in %d single-pass groups, %d already cached\n",
				len(specs), len(specs)-cached, len(groups), cached), nil
		})
	}
	if *fig4 || all {
		run("figure 4", func() (string, error) {
			r, err := suite.Figure4(ctx)
			if err != nil {
				return "", err
			}
			if err := writeCSV(*csvDir, "fig4.csv", func(w io.Writer) error {
				return experiment.CSVFig4(w, r)
			}); err != nil {
				return "", err
			}
			return experiment.FormatFig4(r), nil
		})
	}
	if *fig5 || all {
		run("figure 5", func() (string, error) {
			r, err := suite.Figure5(ctx)
			if err != nil {
				return "", err
			}
			if err := writeCSV(*csvDir, "fig5.csv", func(w io.Writer) error {
				return experiment.CSVFig5(w, r)
			}); err != nil {
				return "", err
			}
			return experiment.FormatFig5(r), nil
		})
	}
	if *fig6 || all {
		run("figure 6", func() (string, error) {
			r, err := suite.Figure6(ctx)
			if err != nil {
				return "", err
			}
			if err := writeCSV(*csvDir, "fig6.csv", func(w io.Writer) error {
				return experiment.CSVFig6(w, r)
			}); err != nil {
				return "", err
			}
			return experiment.FormatFig6(r), nil
		})
	}
	if *extensions || all {
		run("extension: RAM-tag arrays", func() (string, error) {
			rows, err := suite.ExtensionRAMTag(ctx)
			if err != nil {
				return "", err
			}
			return experiment.FormatRAMTag(rows), nil
		})
		run("extension: adaptive area", func() (string, error) {
			rows, err := suite.ExtensionAdaptive(ctx)
			if err != nil {
				return "", err
			}
			return experiment.FormatAdaptive(rows), nil
		})
		run("extension: profile transfer", func() (string, error) {
			rows, err := suite.ExtensionProfileTransfer(ctx)
			if err != nil {
				return "", err
			}
			return experiment.FormatTransfer(rows), nil
		})
	}
	if *ablations || all {
		type abl struct {
			title string
			fn    func(context.Context) ([]experiment.AblationRow, error)
		}
		for _, a := range []abl{
			{"code layout", suite.AblationLayout},
			{"way-hint prediction", suite.AblationHint},
			{"same-line tag skip", suite.AblationSameLine},
			{"replacement policy", suite.AblationReplacement},
		} {
			a := a
			run("ablation: "+a.title, func() (string, error) {
				rows, err := a.fn(ctx)
				if err != nil {
					return "", err
				}
				return experiment.FormatAblation(a.title, rows), nil
			})
		}
	}
	if hits := suite.Engine().Hits(); hits > 0 {
		fmt.Fprintf(os.Stderr, "run cache: %d simulated, %d served from cache\n",
			suite.Engine().Misses(), hits)
	}
	if err := writeObservability(reg, suite, *metricsOut, *snapshotOut, time.Since(start)); err != nil {
		fmt.Fprintf(os.Stderr, "wpbench: %v\n", err)
		exitCode = 1
	}
	os.Exit(exitCode)
}

// writeObservability writes the -snapshot and -metrics outputs after
// the run completes. Both are pure observers of state the engine
// accumulated — nothing here touches figure output.
func writeObservability(reg *obs.Registry, suite *experiment.Suite, metricsOut, snapshotOut string, wall time.Duration) error {
	if snapshotOut != "" {
		command := strings.TrimSpace("wpbench " + strings.Join(os.Args[1:], " "))
		snap := experiment.NewSnapshot(command, suite, reg, wall, sections)
		if err := snap.WriteFile(snapshotOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "snapshot: %s (%d cells, %.1f cells/sec, %.0f%% run-cache hits)\n",
			snapshotOut, snap.Grid.Cells, snap.CellsPerSecond, 100*snap.CacheHitRatio)
	}
	if metricsOut != "" {
		out := io.Writer(os.Stderr)
		if metricsOut != "-" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if strings.HasSuffix(metricsOut, ".json") {
			return reg.WriteJSON(out)
		}
		return reg.WritePrometheus(out)
	}
	return nil
}

// writeCSV writes one figure's CSV file when -csv is set.
func writeCSV(dir, name string, emit func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSelfCheck prepares the named benchmarks and pushes each one, on
// its Large (reference) input, through the differential harness: all
// six scheme variants must agree architecturally, every runtime
// invariant must hold, and every variant replayed from its binary's
// recorded fetch trace, and from the other binary's relocated onto
// its own, must match the live pass bit for bit. Returns
// the process exit code: 0 only if every benchmark passes.
func runSelfCheck(ctx context.Context, names []string, jobs int) int {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "preparing %d benchmarks (build, profile, relink)...\n", len(names))
	suite, err := experiment.NewSuiteOf(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "prepared in %v\n", time.Since(start).Round(time.Millisecond))

	base := suite.Base
	base.MaxInstrs = experiment.MaxInstrs
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}

	type outcome struct {
		name string
		err  error
	}
	results := make([]outcome, len(suite.Workloads))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, w := range suite.Workloads {
		wg.Add(1)
		go func(i int, w *experiment.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, err := check.Differential(ctx, w.Original, w.Placed, base, experiment.InitialWPSize)
			results[i] = outcome{name: w.Name, err: err}
		}(i, w)
	}
	wg.Wait()

	code := 0
	for _, r := range results {
		if r.err != nil {
			fmt.Printf("FAIL %-12s %v\n", r.name, r.err)
			code = 1
		} else {
			fmt.Printf("ok   %s (coupled, single-pass, replayed and relocated agree)\n", r.name)
		}
	}

	// Figure-level check: the CSVs the engine renders from its grouped
	// single-pass execution must be byte-identical to the same figures
	// computed cell by cell through the coupled oracle.
	if err := csvIdentity(ctx, suite, jobs); err != nil {
		fmt.Printf("FAIL %-12s %v\n", "csv-identity", err)
		code = 1
	} else {
		fmt.Printf("ok   csv-identity (grouped engine and coupled oracle figure CSVs byte-identical)\n")
	}
	fmt.Fprintf(os.Stderr, "self-check done in %v\n", time.Since(start).Round(time.Millisecond))
	return code
}

// coupledRunner computes a grid cell by cell through the coupled
// oracle (check.Coupled), on up to jobs cells at once. Cells computed
// by an earlier grid are reused; grids run one after another.
type coupledRunner struct {
	workloads map[string]*engine.Workload
	base      sim.Config
	jobs      int
	done      map[engine.RunSpec]*engine.Result
}

func (r *coupledRunner) Run(ctx context.Context, specs []engine.RunSpec, _ ...engine.Option) ([]*engine.Result, error) {
	results := make([]*engine.Result, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, r.jobs)
	var wg sync.WaitGroup
	for i, spec := range specs {
		if results[i] = r.done[spec]; results[i] != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			stats, changes, err := check.Coupled(ctx, r.workloads[spec.Workload], r.base, spec)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", spec, err)
				return
			}
			results[i] = &engine.Result{Spec: spec, Stats: stats, AreaChanges: changes}
		}()
	}
	wg.Wait()
	for _, res := range results {
		if res != nil {
			r.done[res.Spec] = res
		}
	}
	return results, errors.Join(errs...)
}

// csvIdentity renders the figure 4 and 5 CSVs twice — on a fresh
// engine, whose cells run in single-pass groups and are verified, and
// through the coupled oracle — and demands the bytes match exactly.
func csvIdentity(ctx context.Context, suite *experiment.Suite, jobs int) error {
	wl := make(map[string]*engine.Workload, len(suite.Workloads))
	for _, w := range suite.Workloads {
		wl[w.Name] = &engine.Workload{Name: w.Name, Original: w.Original, Placed: w.Placed}
	}
	base := suite.Base
	base.MaxInstrs = experiment.MaxInstrs
	render := func(r experiment.Runner) ([]byte, error) {
		suite.SetRunner(r)
		defer suite.SetRunner(nil)
		var buf bytes.Buffer
		r4, err := suite.Figure4(ctx)
		if err != nil {
			return nil, err
		}
		if err := experiment.CSVFig4(&buf, r4); err != nil {
			return nil, err
		}
		r5, err := suite.Figure5(ctx)
		if err != nil {
			return nil, err
		}
		if err := experiment.CSVFig5(&buf, r5); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	provider := func(ctx context.Context, name string) (*engine.Workload, error) { return wl[name], nil }
	eng := engine.New(provider, engine.WithBaseConfig(base),
		engine.WithVerify(check.VerifyCell), engine.WithWorkers(jobs))
	grouped, err := render(eng)
	if err != nil {
		return err
	}
	if eng.Groups() == 0 {
		return fmt.Errorf("engine formed no single-pass groups")
	}
	coupled, err := render(&coupledRunner{workloads: wl, base: base, jobs: jobs, done: make(map[engine.RunSpec]*engine.Result)})
	if err != nil {
		return err
	}
	if !bytes.Equal(grouped, coupled) {
		return fmt.Errorf("figure CSVs differ between the grouped engine and the coupled oracle")
	}
	return nil
}

// run executes one figure emitter. A failure is reported on stderr
// and recorded in the process exit code, but the remaining emitters
// still run.
func run(name string, f func() (string, error)) {
	start := time.Now()
	out, err := f()
	sections = append(sections, obs.Section{Name: name, Seconds: time.Since(start).Seconds()})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpbench: %s: %v\n", name, err)
		exitCode = 1
		return
	}
	fmt.Print(out)
	fmt.Fprintf(os.Stderr, "%s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	fmt.Println()
}
