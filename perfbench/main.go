// Command perfbench is the repository benchmark. It runs one workload
// in-process against the real experiment engine or a serving fleet,
// checks every output, and prints the measured metrics:
//
//	perfbench --workload paper-grid|fleet-cold --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// instrumentation. With --trace 1 it reports the per-layer metrics: it
// repeats the untraced measurement, then times every layer from the
// outside (engine and store injection points, handler and transport
// wrappers, direct calls into sim and api) in a separate traced phase.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the full record (seed, provenance, quantiles with sample counts,
// failed checks). A human-readable table goes to standard error. The
// exit status is non-zero when any output check fails. See README.md
// for the metric → layer → workload map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds one run, traced or not, comfortably inside the
// three minutes a run may take.
const runDeadline = 170 * time.Second

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain must also hold on it.
const heldOutSeed = 9001

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	// Results is the directory holding the committed figure CSVs
	// paper-grid must reproduce byte for byte.
	Results string
	// Work is a scratch directory for on-disk state (result stores).
	Work string
}

type workloadFunc func(ctx context.Context, cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-grid": runPaperGrid,
	"fleet-cold": runFleetCold,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-grid or fleet-cold")
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", 10, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	results := fs.String("results", "results", "directory with the committed figure CSVs")
	work := fs.String("work", ".bench_build/work", "scratch directory for result stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper-grid or fleet-cold)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1\n")
		return 2
	}
	cfg := runConfig{
		Seed:    *seed,
		Seconds: time.Duration(*seconds) * time.Second,
		Trace:   *trace == 1,
		Results: *results,
		Work:    *work,
	}
	prov := provenance()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	o, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	o.E2E["max_rss_mb"] = maxRSSMB()
	metrics, err := selectMetrics(o, cfg.Trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.Attempted < 1 {
		o.Attempted = 1
		o.fail("no operation was attempted")
	}
	correct := o.Failed == 0

	record := map[string]any{
		"workload":      *name,
		"seed":          cfg.Seed,
		"held_out_seed": heldOutSeed,
		"seconds":       *seconds,
		"trace":         *trace,
		"provenance":    prov,
		"detail":        o.Detail,
		"problems":      o.Problems,
		"e2e":           o.E2E,
	}
	if cfg.Trace {
		record["layers"] = o.Layers
	}
	printTable(stderr, *name, cfg, prov, o, metrics)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, o.Attempted, o.Failed, metrics}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// provenance records the host and build a result was measured on, so a
// noisy run can be told apart from a slow change.
func provenance() map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
		"unix_time":  time.Now().Unix(),
	}
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err == nil {
		// Load averages come scaled by 2^16 (SI_LOAD_SHIFT).
		p["loadavg"] = fmt.Sprintf("%.2f %.2f %.2f",
			float64(si.Loads[0])/65536, float64(si.Loads[1])/65536, float64(si.Loads[2])/65536)
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value == "true"
			}
		}
	}
	return p
}

// printTable writes the human-readable summary: every reported metric
// by name and unit, then the detail record and any failed checks.
func printTable(w io.Writer, name string, cfg runConfig, prov map[string]any, o *outcome, metrics map[string]metricValue) {
	mode := "end-to-end, untraced"
	if cfg.Trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "perfbench %s  seed %d  %v  (%s)\n", name, cfg.Seed, cfg.Seconds, mode)
	fmt.Fprintf(w, "  host: nproc %v, GOMAXPROCS %v, %v, load %v, commit %v\n",
		prov["nproc"], prov["gomaxprocs"], prov["go_version"], prov["loadavg"], prov["commit"])
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(o.Detail))
	for k := range o.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(o.Detail[k])
		fmt.Fprintf(w, "  detail %-25s %s\n", k, b)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", o.Attempted, o.Failed)
	for _, p := range o.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}
