// Command wpcoordd is the fleet coordinator: a daemon that owns a
// consistent-hash ring over N wpserved backends and speaks the same
// versioned JSON run API (internal/api) on its front side. Clients
// point serve.Client (or curl) at the coordinator exactly as they
// would at a single wpserved — zero client changes — and every batch
// is split into per-backend sub-batches by each cell's fetch stream
// (RunSpec.Stream), fanned out concurrently, and merged back in
// original cell order.
//
// Sharding by stream turns the N backends into one logical cache:
// every cell of a stream, and so every repeat of a cell, routes to the
// same backend, so the fleet executes each stream's program once,
// simulates a cold cell exactly once and answers all later requests
// from that backend's warm run cache or persistent store.
//
// Endpoints (identical surface to wpserved):
//
//	POST /v1/runs      run a batch (async with "async": true)
//	GET  /v1/runs/{id} poll an async job (scatter-gathers backend jobs)
//	GET  /healthz      coordinator + ring + per-backend health
//	GET  /metrics      fleet_* metrics incl. per-backend series
//
// Overload and failure: a backend 429 is retried against the same
// backend with its Retry-After hint and then propagated upstream as a
// coordinator 429 — busy shards get backpressure, never migration,
// which preserves cache affinity. Hard failures (connection refused,
// 5xx) fail over to up to -failover successor ring nodes; cells whose
// whole failover sequence is down come back as per-cell failures.
//
// Usage:
//
//	wpcoordd -backends http://h1:8100,http://h2:8100[,...]
//	         [-addr host:port] [-queue N] [-maxbatch N] [-failover N]
//	         [-retries N] [-vnodes N] [-jobttl d] [-retryafter d]
//	         [-tenantslots N] [-drain d]
//	wpcoordd -oneshot
//
// Tenant identity (X-WP-Tenant, defaulting to the caller's remote
// address) is forwarded on every scattered sub-batch, so backend-side
// quotas and weighted-fair dequeue see the real client, not the
// coordinator. -tenantslots additionally caps, per tenant, how many
// batches the coordinator itself will hold in flight: the tenant at
// its cap gets 429 over_quota while others keep admitting.
//
// -oneshot is the self-test behind ROADMAP's tier-1 gate: it boots
// three in-process wpserved backends over synthetic workloads, drives
// the canonical wpload cell pool through the coordinator — sync and
// async — and demands the merged wire results be identical to a
// direct single-engine run of the same cells, that the batch spread
// over at least two backends, that the fleet simulated each cell
// exactly once, and that it produced each stream's fetch stream once,
// by executing its program or by relocating the recording of its
// workload's original layout (summed engine_trace_misses_total plus
// engine_trace_relocations_total equals the distinct streams).
// Exits non-zero on any mismatch.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/fleet"
	"wayplace/internal/load"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8200", "listen address")
	backends := flag.String("backends", "", "comma-separated wpserved base URLs forming the ring")
	queue := flag.Int("queue", 64, "batches coordinated concurrently before new ones get 429")
	maxBatch := flag.Int("maxbatch", 4096, "max cells per batch (must not exceed the backends' -maxbatch)")
	failover := flag.Int("failover", 1, "successor ring nodes tried after a backend hard-fails (negative = none)")
	retries := flag.Int("retries", 4, "429 retries per backend before propagating busy upstream")
	vnodes := flag.Int("vnodes", 0, "virtual ring points per backend (0 = default)")
	jobTTL := flag.Duration("jobttl", 10*time.Minute, "how long finished async jobs stay pollable (negative = forever)")
	retryAfter := flag.Duration("retryafter", time.Second, "the coordinator's own 429 backoff hint")
	drain := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight scatters")
	tenantSlots := flag.Int("tenantslots", 0, "coordination slots one tenant (X-WP-Tenant, or remote addr) may hold at once; past it that tenant alone gets 429 over_quota (0 = no per-tenant cap)")
	oneshot := flag.Bool("oneshot", false, "boot 3 loopback backends, prove coordinated results identical to a direct engine run, and exit")
	flag.Parse()

	if *oneshot {
		os.Exit(runOneshot())
	}
	if *backends == "" {
		fail(fmt.Errorf("-backends is required (or use -oneshot)"))
	}

	reg := obs.NewRegistry()
	coord, err := fleet.New(fleet.Options{
		Backends:       strings.Split(*backends, ","),
		Registry:       reg,
		VNodes:         *vnodes,
		QueueDepth:     *queue,
		MaxBatchCells:  *maxBatch,
		Failover:       *failover,
		BackendRetries: *retries,
		RetryAfter:     *retryAfter,
		JobTTL:         *jobTTL,
		TenantSlots:    *tenantSlots,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	fmt.Fprintf(os.Stderr, "wpcoordd: api %s coordinating %d backends on http://%s\n",
		api.Version, coord.Ring().Len(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "wpcoordd: draining in-flight scatters (up to %v)...\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "wpcoordd: %v\n", err)
	}
	if err := coord.Shutdown(drainCtx); err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "wpcoordd: drained")
}

// runOneshot proves the coordinator's core contract: results merged
// from a sharded fleet are indistinguishable from a direct engine run.
func runOneshot() int {
	const (
		nBackends = 3
		workloads = 12
	)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Backends: in-process wpserved instances over the same synthetic
	// workload set, each with its own engine, run cache and registry.
	backs := make([]*load.Loopback, nBackends)
	regs := make([]*obs.Registry, nBackends)
	urls := make([]string, nBackends)
	for i := range backs {
		regs[i] = obs.NewRegistry()
		lb, err := load.StartLoopback(load.LoopbackOptions{Workloads: workloads, Registry: regs[i]})
		if err != nil {
			fail(err)
		}
		defer lb.Close(ctx)
		backs[i] = lb
		urls[i] = lb.URL
	}

	reg := obs.NewRegistry()
	coord, err := fleet.New(fleet.Options{Backends: urls, Registry: reg})
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "wpcoordd: oneshot on %s over %d loopback backends\n", url, nBackends)

	// The canonical wpload pool: every scheme x WP-size cell for each
	// synthetic workload — the same key population the ring is balanced
	// against.
	reqs := load.Pool(load.SyntheticNames(workloads), load.SyntheticGeometry(),
		[]uint32{1 << 10, 4 << 10, 8 << 10, 16 << 10})
	specs, err := api.ToSpecs(reqs)
	if err != nil {
		fail(err)
	}

	// Ground truth: the same cells on one fresh local engine.
	ref := engine.New(load.SyntheticProvider(workloads), engine.WithBaseConfig(sim.Default()))

	code := 0
	check := func(leg string, resp *api.BatchResponse) {
		if err := api.CheckIdentical(ctx, ref, reqs, resp); err != nil {
			fmt.Fprintf(os.Stderr, "wpcoordd: oneshot %s: %v\n", leg, err)
			code = 1
		}
	}

	// Leg 1: sync scatter-gather.
	resp, err := serve.NewClient(url).Run(ctx, reqs)
	if err != nil {
		fail(err)
	}
	check("sync", resp)

	// The ring must actually have sharded the batch...
	spread := 0
	var fleetMisses uint64
	for _, lb := range backs {
		if lb.Engine.Misses() > 0 {
			spread++
		}
		fleetMisses += lb.Engine.Misses()
	}
	if spread < 2 {
		fmt.Fprintf(os.Stderr, "wpcoordd: oneshot: batch landed on %d backend(s), want >= 2\n", spread)
		code = 1
	}
	// ...simulated each cell exactly once across the fleet...
	if fleetMisses != uint64(len(reqs)) {
		fmt.Fprintf(os.Stderr, "wpcoordd: oneshot: fleet simulated %d cells for %d unique cells\n",
			fleetMisses, len(reqs))
		code = 1
	}
	// ...and, routing by stream, produced each stream once: live, or
	// relocated from its workload's original-layout recording.
	streams := make(map[string]bool)
	for _, s := range specs {
		streams[s.Stream()] = true
	}
	var produced uint64
	for _, reg := range regs {
		produced += reg.Counter(engine.MetricTraceMisses).Value() + reg.Counter(engine.MetricTraceRelocations).Value()
	}
	if produced != uint64(len(streams)) {
		fmt.Fprintf(os.Stderr, "wpcoordd: oneshot: fleet produced %d streams, live or relocated, for %d distinct streams\n",
			produced, len(streams))
		code = 1
	}

	// Leg 2: async submit + poll through the coordinator; the whole
	// pool is now warm, so this also proves gathered cache hits merge
	// identically.
	resp, err = runAsync(ctx, url, reqs)
	if err != nil {
		fail(err)
	}
	check("async", resp)
	if got := uint64(len(reqs)); fleetSimulated(backs) != got {
		fmt.Fprintf(os.Stderr, "wpcoordd: oneshot: async leg re-simulated cells (%d total, want %d)\n",
			fleetSimulated(backs), got)
		code = 1
	}

	if code == 0 {
		fmt.Fprintf(os.Stderr, "wpcoordd: oneshot ok (%d cells over %d backends, sync+async merged results identical to a direct engine run, each cell simulated once and each of %d streams produced once fleet-wide)\n",
			len(reqs), spread, len(streams))
	}
	return code
}

func fleetSimulated(backs []*load.Loopback) uint64 {
	var n uint64
	for _, lb := range backs {
		n += lb.Engine.Misses()
	}
	return n
}

// runAsync submits the batch with "async": true and polls the
// coordinator until the job finishes.
func runAsync(ctx context.Context, url string, reqs []api.RunRequest) (*api.BatchResponse, error) {
	client := serve.NewClient(url)
	shell, err := client.Submit(ctx, reqs)
	if err != nil {
		return nil, err
	}
	if want := api.BatchKey(reqs); shell.JobID != want {
		return nil, fmt.Errorf("async job id %q, want deterministic %q", shell.JobID, want)
	}
	return client.Poll(ctx, shell.JobID)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "wpcoordd: %v\n", err)
	os.Exit(1)
}
