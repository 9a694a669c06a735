// Command wpload is the concurrent-client load harness for wpserved.
// It drives a fleet of independent HTTP clients — hundreds by default
// — against a daemon, each submitting sync and async batches drawn
// zipfian-hot from a fixed pool of canonical cells, honouring 429
// backpressure with capped Retry-After backoff and (with -churn)
// hanging up mid-request to exercise abandoned-connection paths. The
// run's latency quantiles, 429/retry/error rates and throughput land
// in a machine-readable snapshot when -snapshot names a file
// (-snapshot BENCH_wpload.json refreshes the committed one), optionally
// checked against p50/p99 SLOs.
//
// Usage:
//
//	wpload [-addr URL] [-clients N] [-duration d] [-async F]
//	       [-batch N] [-zipf S] [-churn F] [-retries N]
//	       [-workloads N] [-pool a,b,...] [-queue N] [-jobs N]
//	       [-snapshot file] [-metrics file] [-seed N]
//	       [-slo-p50 d] [-slo-p99 d] [-slo-cell-p99 d]
//	       [-slo-429 F] [-slo-errors F]
//	       [-smoke | -crash | -fleet N | -fleet-smoke | -tenants N |
//	        -tenants-smoke] [-fleet-speedup F]
//
// With no -addr, wpload starts an in-process wpserved over tiny
// synthetic workloads on a loopback socket — the full HTTP stack with
// none of the network or benchmark-preparation noise, which is what
// CI wants. With -addr it targets a running daemon; -pool then names
// the workloads to draw cells from (default: the daemon's standard
// benchmark set is NOT assumed — the flag is required).
//
// The mode flags are mutually exclusive; each selects one row of the
// scenario table. A mode's gate step runs first; then, except under
// -crash, the same zipfian load leg runs against the target the gate
// step left up.
//
// -smoke is the tier-1 CI gate: loopback target, 200 clients for 2
// seconds, generous SLOs that catch breakage (orphaned async jobs,
// starved sync callers, buffered encodes) without flaking on slow
// runners. Exit status 1 on any SLO violation.
//
// -crash is the durability gate: wpload re-execs itself as a
// store-backed daemon, submits async batches, SIGKILLs the daemon the
// moment the last 202 lands, restarts it on the same store and
// asserts every pre-kill job id resolves to results byte-identical to
// a direct engine run — then proves a third, cold-memory daemon
// serves the warm store without re-simulating a single cell.
//
// -fleet N is the scaling gate: it measures 1-vs-N cold-pool
// throughput over loopback backends behind an in-process coordinator
// and requires -fleet-speedup, proves the once-per-fleet invariant,
// then load-tests the fleet. -fleet-smoke is the tier-1 short form
// (3 backends, no scaling measurement).
//
// -tenants N is the fairness gate: one hog fleet an order of
// magnitude past its per-tenant quota and N-1 polite fleets run
// concurrently against a quota'd loopback; each polite tenant must
// keep the latency and throughput a solo baseline run measured,
// while the hog — and only the hog — absorbs over_quota 429s.
// -tenants-smoke is the tier-1 short form (3 tenants, short legs).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/experiment"
	"wayplace/internal/load"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
)

// scenario is one row of wpload's mode table.
type scenario struct {
	// mode and smoke name the flags that select the row: mode runs it
	// in full, smoke in its short CI form with the smoke preset.
	// Either may be empty.
	mode, smoke string
	// smokeP50 is the smoke preset's HTTP p50 SLO.
	smokeP50 time.Duration
	// gate runs before the load leg and returns what the leg targets;
	// a nil leg means the row has no load leg.
	gate func(ctx context.Context, c *config) (*leg, error)
}

// scenarios is the mode table; the first row runs when no mode flag
// is set.
var scenarios = []scenario{
	{smoke: "smoke", smokeP50: 250 * time.Millisecond, gate: plainGate},
	// The coordinator hop re-encodes every batch both ways, which on a
	// starved CI core lands the median one latency bucket higher than
	// a direct backend's.
	{mode: "fleet", smoke: "fleet-smoke", smokeP50: 500 * time.Millisecond, gate: fleetGate},
	{mode: "tenants", smoke: "tenants-smoke", smokeP50: 250 * time.Millisecond, gate: tenantsGate},
	{mode: "crash", gate: crashGate},
}

// config is a parsed command line.
type config struct {
	row *scenario
	// opt is the load leg's generator; the gate step fills in BaseURL
	// and Pool.
	opt load.Options
	slo *load.SLO // nil when the run asserts no SLO

	addr, pool, snapshot, metrics string
	workloads, queue, jobs        int
	fleetN, tenantsN              int
	minSpeedup                    float64
}

// leg is what a gate step hands the load leg.
type leg struct {
	url   string
	pool  []api.RunRequest
	label string // the snapshot's target
	// fleet and tenants are the snapshot sections the gate measured.
	fleet   *load.FleetSnapshot
	tenants *load.TenantsSnapshot
	// violations fail the run once the load leg has been recorded.
	violations []string
	close      func(context.Context) error // nil for an external daemon
}

func main() {
	// Re-exec'd as a crash-choreography daemon child? Then this call
	// runs the daemon and never returns.
	load.MaybeDaemonChild()

	c, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		// The flag package has already reported its own parse errors.
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintf(os.Stderr, "wpload: %v\n", err)
		}
		os.Exit(2)
	}
	os.Exit(run(context.Background(), c))
}

// usageError is a command line the flag package accepted but the
// scenario table does not.
type usageError string

func (e usageError) Error() string { return string(e) }

// parseFlags resolves a command line to its scenario row and the
// flag values, smoke preset applied.
func parseFlags(args []string) (*config, error) {
	c := &config{}
	slo := &load.SLO{}
	fs := flag.NewFlagSet("wpload", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", "", "target wpserved base URL, e.g. http://127.0.0.1:8100 (empty = in-process loopback server)")
	fs.IntVar(&c.opt.Clients, "clients", 256, "concurrent clients")
	fs.DurationVar(&c.opt.Duration, "duration", 10*time.Second, "how long clients keep submitting")
	fs.Float64Var(&c.opt.AsyncFraction, "async", 0.25, "fraction of batches submitted async (202 + poll); 0 = all sync")
	fs.IntVar(&c.opt.MaxBatchCells, "batch", 8, "max cells per batch (sizes are uniform 1..N)")
	fs.Float64Var(&c.opt.ZipfS, "zipf", 1.2, "zipfian skew over pool ranks (>1; larger = hotter hot set)")
	fs.Float64Var(&c.opt.Churn, "churn", 0.02, "probability a client abandons a submission mid-request")
	fs.IntVar(&c.opt.MaxRetries, "retries", 8, "resubmissions after 429 before a batch counts as dropped")
	fs.IntVar(&c.workloads, "workloads", 4, "synthetic workloads behind the loopback server")
	fs.StringVar(&c.pool, "pool", "", "comma-separated workload names for the cell pool (required with -addr)")
	fs.IntVar(&c.queue, "queue", 64, "loopback server queue depth")
	fs.IntVar(&c.jobs, "jobs", 0, "loopback engine workers (0 = GOMAXPROCS)")
	fs.Int64Var(&c.opt.Seed, "seed", 1, "client RNG seed")
	fs.StringVar(&c.snapshot, "snapshot", "", "write the run snapshot here, e.g. BENCH_wpload.json (empty = skip)")
	fs.StringVar(&c.metrics, "metrics", "", "also dump the client-side load_* registry as JSON here")
	fs.Bool("smoke", false, "CI smoke: loopback, 200 clients, 2s, SLOs asserted, exit 1 on violation")
	fs.Bool("crash", false, "kill/restart durability choreography: SIGKILL a store-backed daemon mid-load, restart, assert nothing observable was lost")
	fs.IntVar(&c.fleetN, "fleet", 0, "fleet mode: N loopback backends behind an in-process coordinator; measures 1-vs-N cold-pool scaling, asserts once-per-fleet, then load-tests the fleet")
	fs.Bool("fleet-smoke", false, "CI fleet smoke: 3 backends, once-per-fleet invariant plus a 2s SLO-checked load run (no scaling measurement)")
	fs.Float64Var(&c.minSpeedup, "fleet-speedup", 2.5, "minimum fleet/single cells-per-second ratio -fleet must reach")
	fs.IntVar(&c.tenantsN, "tenants", 0, "fairness mode: 1 hog + N-1 polite tenant fleets against a quota'd loopback; asserts polite p99/throughput within a band of a solo baseline, then runs the standard load leg")
	fs.Bool("tenants-smoke", false, "CI fairness smoke: 3 tenants with short legs plus a 2s SLO-checked load run")

	fs.DurationVar(&slo.HTTPP50Max, "slo-p50", 0, "max HTTP p50 (0 = unchecked)")
	fs.DurationVar(&slo.HTTPP99Max, "slo-p99", 0, "max HTTP p99 (0 = unchecked)")
	fs.DurationVar(&slo.CellP99Max, "slo-cell-p99", 0, "max per-cell p99 (0 = unchecked)")
	fs.Float64Var(&slo.Max429Rate, "slo-429", -1, "max 429s per HTTP request (negative = unchecked)")
	fs.Float64Var(&slo.MaxErrorRate, "slo-errors", -1, "max batch error rate (negative = unchecked)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	// A flag is on when it differs from its default: -fleet 0 selects
	// nothing.
	on := func(name string) bool {
		f := fs.Lookup(name)
		return f != nil && f.Value.String() != f.DefValue
	}
	c.row = &scenarios[0]
	var picked []string
	for i := range scenarios {
		s := &scenarios[i]
		switch {
		case on(s.mode):
			picked = append(picked, "-"+s.mode)
		case on(s.smoke):
			picked = append(picked, "-"+s.smoke)
		default:
			continue
		}
		c.row = s
	}
	if len(picked) > 1 {
		return nil, usageError("mode flags are mutually exclusive, got " + strings.Join(picked, " and "))
	}
	if c.addr != "" && c.row != &scenarios[0] {
		return nil, usageError("-addr applies to the plain load run only")
	}

	smoke := on(c.row.smoke)
	if smoke {
		// Presets only where the user did not choose: -smoke -clients
		// 500 smokes with 500 clients.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		preset := [][2]string{
			{"clients", "200"},
			{"duration", "2s"},
			{"slo-p50", c.row.smokeP50.String()},
			{"slo-p99", "2s"},
			{"slo-cell-p99", "1s"},
			// Backpressure is expected under a 200-client burst; what
			// the gate rejects is every request bouncing.
			{"slo-429", "0.95"},
			{"slo-errors", "0.01"},
		}
		for _, p := range preset {
			if !set[p[0]] {
				if err := fs.Set(p[0], p[1]); err != nil {
					return nil, err
				}
			}
		}
	}
	if smoke || slo.HTTPP50Max > 0 || slo.HTTPP99Max > 0 || slo.CellP99Max > 0 ||
		slo.Max429Rate >= 0 || slo.MaxErrorRate >= 0 {
		c.slo = slo
	}
	return c, nil
}

// run executes the selected row — gate step, then load leg — and
// returns the process exit code.
func run(ctx context.Context, c *config) int {
	l, err := c.row.gate(ctx, c)
	if l != nil && l.close != nil {
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			l.close(sctx)
		}()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpload: %v\n", err)
		return 1
	}
	if l == nil {
		return 0
	}
	violations, err := loadLeg(ctx, c, l)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpload: %v\n", err)
		return 1
	}
	if len(l.violations)+len(violations) > 0 {
		return 1
	}
	return 0
}

// loadLeg drives the zipfian client load at the gate step's target,
// prints and records the run, and checks the SLO. It returns the SLO
// violations.
func loadLeg(ctx context.Context, c *config, l *leg) ([]string, error) {
	opt := c.opt
	opt.BaseURL, opt.Pool = l.url, l.pool
	gen, err := load.New(opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wpload: %d clients for %v against %s (%d-cell pool, async %.2f, churn %.2f)\n",
		opt.Clients, opt.Duration, l.label, len(l.pool), opt.AsyncFraction, opt.Churn)
	report, err := gen.Run(ctx)
	if err != nil {
		return nil, err
	}
	printReport(report)

	snap := report.Snapshot(commandLine(), l.label, c.slo)
	snap.UnixTime = time.Now().Unix()
	snap.Fleet, snap.Tenants = l.fleet, l.tenants
	if c.snapshot != "" {
		if err := snap.WriteFile(c.snapshot); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "wpload: snapshot written to %s\n", c.snapshot)
	}
	if c.metrics != "" {
		if err := writeMetrics(gen.Registry(), c.metrics); err != nil {
			return nil, err
		}
	}
	if snap.SLO == nil {
		return nil, nil
	}
	for _, v := range snap.SLO.Violations {
		fmt.Fprintf(os.Stderr, "wpload: SLO VIOLATION: %s\n", v)
	}
	if snap.SLO.Pass {
		fmt.Fprintf(os.Stderr, "wpload: SLOs ok\n")
	}
	return snap.SLO.Violations, nil
}

// plainGate targets -addr, or boots the loopback server.
func plainGate(ctx context.Context, c *config) (*leg, error) {
	if c.addr == "" {
		return c.loopback("loopback")
	}
	if c.pool == "" {
		return nil, fmt.Errorf("-addr needs -pool: which workloads should the cells name?")
	}
	// The named daemon workloads on the paper's XScale geometry.
	icache := api.GeometryOf(experiment.XScaleICache())
	pool := load.Pool(strings.Split(c.pool, ","), icache,
		[]uint32{experiment.InitialWPSize, experiment.InitialWPSize / 2})
	return &leg{url: c.addr, pool: pool, label: c.addr}, nil
}

// loopback boots the in-process wpserved the load leg targets.
func (c *config) loopback(label string) (*leg, error) {
	lb, err := load.StartLoopback(load.LoopbackOptions{
		Workloads:  c.workloads,
		Workers:    c.jobs,
		QueueDepth: c.queue,
		Registry:   obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wpload: loopback wpserved on %s (%d synthetic workloads, queue %d)\n",
		lb.URL, c.workloads, c.queue)
	// Synthetic cells over the loopback's workloads, or -pool's names.
	names := lb.Workloads
	if c.pool != "" {
		names = strings.Split(c.pool, ",")
	}
	pool := load.Pool(names, load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10})
	return &leg{url: lb.URL, pool: pool, label: label, close: lb.Close}, nil
}

// fleetGate: (1) with -fleet, measure 1-vs-N backend cold-pool
// throughput and require -fleet-speedup; (2) prove the once-per-fleet
// invariant deterministically on the serving fleet — the whole pool
// pushed through the coordinator twice simulates each cell exactly
// once fleet-wide — before any client can abandon a request
// mid-simulation.
func fleetGate(ctx context.Context, c *config) (*leg, error) {
	n := c.fleetN
	if n == 0 {
		n = 3 // -fleet-smoke
	}
	if n < 2 {
		return nil, fmt.Errorf("-fleet needs >= 2 backends, got %d", n)
	}
	var section *load.FleetSnapshot
	if c.fleetN > 0 {
		bench, err := load.FleetBench(ctx, load.FleetBenchOptions{
			Backends:   n,
			MinSpeedup: c.minSpeedup,
			Log:        os.Stderr,
		})
		if err != nil {
			return nil, err
		}
		section = bench
		fmt.Fprintf(os.Stderr, "wpload: fleet scaling: %d backends %.2fx over 1 (%.0f vs %.0f cells/s), once-per-fleet ok (%d cells simulated for a %d-cell pool)\n",
			bench.Backends, bench.Speedup, bench.FleetCellsPerSecond, bench.SingleCellsPerSecond,
			bench.SimulatedCells, bench.ScalePoolCells)
	}

	f, err := load.StartFleet(load.FleetOptions{
		Backends:       n,
		Workloads:      c.workloads,
		BackendWorkers: c.jobs,
		BackendQueue:   c.queue,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	l := &leg{
		url:   f.URL,
		pool:  load.Pool(load.SyntheticNames(c.workloads), load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10}),
		label: fmt.Sprintf("fleet:%d", n),
		close: f.Close,
	}
	fmt.Fprintf(os.Stderr, "wpload: fleet of %d backends behind coordinator %s (%d-cell pool)\n",
		n, f.URL, len(l.pool))
	client := serve.NewClient(f.URL)
	for pass := 0; pass < 2; pass++ {
		resp, err := client.Run(ctx, l.pool)
		if err != nil {
			return l, err
		}
		if resp.Status != api.StatusDone || len(resp.Errors) != 0 {
			return l, fmt.Errorf("fleet warm-up pass %d ended %q with %d failures", pass, resp.Status, len(resp.Errors))
		}
	}
	if sim := f.SimulatedCells(); sim != uint64(len(l.pool)) {
		return l, fmt.Errorf("fleet simulated %d cells for a %d-cell pool — the once-per-fleet invariant is broken", sim, len(l.pool))
	}
	fmt.Fprintf(os.Stderr, "wpload: once-per-fleet ok (%d cells simulated once across %d backends)\n",
		len(l.pool), n)
	if section == nil {
		section = &load.FleetSnapshot{
			Backends:       n,
			ScalePoolCells: len(l.pool),
			SimulatedCells: uint64(len(l.pool)),
			OncePerFleet:   true,
		}
	}
	l.fleet = section
	return l, nil
}

// tenantsGate measures quota isolation — a solo polite baseline, then
// 1 hog + N-1 polite fleets against a quota'd loopback, gated on each
// polite tenant keeping solo-like p99 and throughput — then boots the
// plain (tenancy-off) loopback, so the load leg proves the
// tenant-aware admission path costs the single-tenant baseline
// nothing.
func tenantsGate(ctx context.Context, c *config) (*leg, error) {
	n, legDuration := c.tenantsN, 3*time.Second
	if n == 0 {
		n, legDuration = 3, 1200*time.Millisecond // -tenants-smoke
	}
	bench, err := load.TenantBench(ctx, load.TenantBenchOptions{
		Tenants:  n,
		Duration: legDuration,
		Log:      os.Stderr,
	})
	if bench == nil {
		return nil, err
	}
	for _, v := range bench.Violations {
		fmt.Fprintf(os.Stderr, "wpload: FAIRNESS VIOLATION: %s\n", v)
	}
	if bench.Pass {
		fmt.Fprintf(os.Stderr, "wpload: fairness ok: %d polite tenants held the solo band (p99 %v) against the hog (%d over-quota rejections)\n",
			n-1, bench.Solo.BatchP99(), bench.Hog.OverQuota)
	}
	l, err := c.loopback(fmt.Sprintf("tenants:%d", n))
	if err != nil {
		return nil, err
	}
	l.tenants, l.violations = bench, bench.Violations
	return l, nil
}

// crashGate is the kill/restart choreography; it has no load leg.
func crashGate(ctx context.Context, c *config) (*leg, error) {
	if err := load.RunCrash(ctx, load.CrashOptions{Log: os.Stderr}); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "wpload: crash choreography ok")
	return nil, nil
}

func printReport(r *load.Report) {
	fmt.Fprintf(os.Stderr,
		"wpload: %d batches (%d cells) in %.2fs — %.0f batches/s, %.0f cells/s\n"+
			"wpload: http %d requests, p50 %v, p99 %v; batch p50 %v, p99 %v; cell p50 %v, p99 %v\n"+
			"wpload: 429s %d (rate %.3f), retries %d, dropped %d, errors %d (rate %.4f), aborts %d, polls %d\n",
		r.Batches, r.Cells, r.Elapsed.Seconds(), r.BatchesPerSecond, r.CellsPerSecond,
		r.Requests, r.HTTPP50, r.HTTPP99, r.BatchP50, r.BatchP99, r.CellP50, r.CellP99,
		r.Status429, r.Rate429, r.Retries, r.Dropped, r.Errors, r.ErrorRate, r.Aborts, r.AsyncPolls)
}

func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func commandLine() string {
	// os.Args[0] is a temp path under `go run`; normalise it.
	return strings.Join(append([]string{"wpload"}, os.Args[1:]...), " ")
}
