// Command wpserved is the experiment service: a long-running daemon
// that owns one shared experiment engine and exposes it over HTTP as
// the versioned JSON run API (internal/api). Every client — wpbench
// -server sweeps, wpexplore, curl — shares the daemon's memoized run
// cache, so a cell any client has requested is simulated exactly once
// for the life of the process.
//
// Endpoints:
//
//	POST /v1/runs      run a batch of cells (async with "async": true)
//	GET  /v1/runs/{id} poll an async job
//	GET  /healthz      liveness, queue level, cache totals
//	GET  /metrics      Prometheus text (?format=json for JSON)
//
// Backpressure: -queue bounds concurrently queued batches and
// -maxbatch the cells per batch; beyond either the server answers 429
// with Retry-After instead of accumulating work. On SIGINT/SIGTERM
// the daemon stops accepting batches and drains in-flight cells for
// up to -drain before exiting.
//
// Multi-tenancy: requests carry an identity in X-WP-Tenant (default:
// the caller's remote address). -tenantslots caps the queue slots one
// tenant may hold — past it that tenant alone gets 429 over_quota
// while others keep admitting; -tenantwait parks briefly-contended
// admissions in per-tenant sub-queues drained deficit-round-robin,
// weighted by -tenantweights.
//
// Durability: with -store DIR the daemon layers a disk-backed
// content-addressed result store under the engine run cache (one file
// per canonical cell key, atomic fsync'd writes) and journals every
// accepted async batch to DIR/journal.wal before answering 202. A
// SIGKILL loses nothing a client can observe: on restart the journal
// is replayed — unfinished jobs resume, finished ones stay pollable
// until -jobttl — and warm-store cells are served from disk instead
// of re-simulated. -store-fsck verifies the store and exits.
//
// Usage:
//
//	wpserved [-addr host:port] [-jobs N] [-queue N] [-asyncslots N]
//	         [-maxbatch N] [-jobttl d] [-timeout d] [-drain d]
//	         [-tenantslots N] [-tenantwait d] [-tenantweights a=4,b=1]
//	         [-store DIR] [-journal FILE] [-store-fsck]
//	         [-noverify] [-oneshot]
//
// -oneshot is the self-test: the daemon binds a loopback port, pushes
// one small coalescible batch (cells sharing a fetch stream, so the
// engine's single-pass grouping is on the path) through the full HTTP
// stack, compares the wire results byte-for-byte against a direct
// engine run of the same cells, and exits non-zero on any mismatch.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/check"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
	"wayplace/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8100", "listen address")
	jobs := flag.Int("jobs", 0, "simulation cells to run concurrently (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 8, "batches queued or running before new ones get 429")
	asyncSlots := flag.Int("asyncslots", 0, "queue slots async batches may hold at once (0 = queue-1, so sync callers always have one)")
	maxBatch := flag.Int("maxbatch", 4096, "max cells per batch")
	jobTTL := flag.Duration("jobttl", 10*time.Minute, "how long finished async jobs stay pollable (negative = forever)")
	timeout := flag.Duration("timeout", 0, "per-batch run timeout (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight cells")
	noverify := flag.Bool("noverify", false, "skip the per-cell invariant checker (check.VerifyCell)")
	oneshot := flag.Bool("oneshot", false, "bind a loopback port, run one smoke batch through the HTTP path and exit")
	storeDir := flag.String("store", "", "persistent result store directory (empty = in-memory only)")
	journalPath := flag.String("journal", "", "async-job journal file (default <store>/journal.wal; requires -store)")
	storeFsck := flag.Bool("store-fsck", false, "verify every CAS object in -store re-hashes to its key, then exit (non-zero on corruption)")
	tenantSlots := flag.Int("tenantslots", 0, "queue slots one tenant (X-WP-Tenant, or remote addr) may hold at once; past it that tenant gets 429 over_quota while others keep admitting (0 = no per-tenant quota)")
	tenantWait := flag.Duration("tenantwait", 0, "how long an admission may park in its tenant sub-queue for the weighted-fair dispatcher before 429 queue_full (0 = no parking, pre-tenancy behaviour)")
	tenantWeights := flag.String("tenantweights", "", "per-tenant dequeue weights as name=w,name=w (unlisted tenants weigh 1)")
	flag.Parse()

	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		fail(err)
	}

	if *storeFsck {
		os.Exit(runFsck(*storeDir))
	}

	reg := obs.NewRegistry()
	base := sim.Default()
	base.MaxInstrs = experiment.MaxInstrs
	opts := []engine.Option{
		engine.WithWorkers(*jobs),
		engine.WithBaseConfig(base),
		engine.WithObserver(reg),
	}
	if !*noverify {
		opts = append(opts, engine.WithVerify(check.VerifyCell))
	}

	// Persistence: the CAS store slots under the engine run cache, the
	// journal under the async job table. Both live in -store so one
	// directory is the whole durable state of a daemon.
	var st *store.Store
	var journal *store.Journal
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{
			Dir:         *storeDir,
			Registry:    reg,
			Fingerprint: store.Fingerprint(base),
		})
		if err != nil {
			fail(err)
		}
		defer st.Close()
		opts = append(opts, engine.WithStore(st))
		jp := *journalPath
		if jp == "" {
			jp = filepath.Join(*storeDir, "journal.wal")
		}
		journal, err = store.OpenJournal(jp, reg)
		if err != nil {
			fail(err)
		}
		defer journal.Close()
	} else if *journalPath != "" {
		fail(fmt.Errorf("-journal requires -store (results a replayed job needs must be durable too)"))
	}

	// The provider is lazy: a workload is built, profiled and relaid
	// the first time any client names it, then memoized by the engine.
	eng := engine.New(provider, opts...)

	srv, err := serve.New(serve.Options{
		Engine:        eng,
		Registry:      reg,
		QueueDepth:    *queue,
		AsyncSlots:    *asyncSlots,
		MaxBatchCells: *maxBatch,
		JobTTL:        *jobTTL,
		RunTimeout:    *timeout,
		Journal:       journal,
		Tenancy: serve.TenancyOptions{
			Slots:     *tenantSlots,
			AdmitWait: *tenantWait,
			Weights:   weights,
		},
	})
	if err != nil {
		fail(err)
	}

	if *oneshot {
		os.Exit(runOneshot(srv, eng, base))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "wpserved: api %s listening on http://%s\n", api.Version, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}

	// Drain: stop the listener without cancelling in-flight request
	// contexts, then wait for queued and async batches to finish.
	fmt.Fprintf(os.Stderr, "wpserved: draining in-flight batches (up to %v)...\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "wpserved: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fail(err)
	}
	if st != nil {
		// Flush write-behind saves so the next boot's store is as warm
		// as this process's run cache was.
		st.Flush()
	}
	fmt.Fprintf(os.Stderr, "wpserved: drained (%d simulated, %d cache hits)\n",
		eng.Misses(), eng.Hits())
}

// parseWeights turns "teamA=4,teamB=1" into the tenancy weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-tenantweights: %q is not name=weight", pair)
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-tenantweights: %q: weight must be a positive integer", pair)
		}
		if _, err := api.ParseTenant(name); err != nil {
			return nil, fmt.Errorf("-tenantweights: %w", err)
		}
		weights[name] = n
	}
	return weights, nil
}

// runFsck walks the store and verifies every CAS object decodes and
// re-hashes to its filename; the exit status is the integrity verdict
// CI and operators script against.
func runFsck(dir string) int {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "wpserved: -store-fsck requires -store DIR")
		return 2
	}
	rep, err := store.Fsck(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wpserved: %v\n", err)
		return 2
	}
	for _, c := range rep.Corrupt {
		fmt.Fprintf(os.Stderr, "wpserved: store-fsck: CORRUPT %s\n", c)
	}
	fmt.Fprintf(os.Stderr, "wpserved: store-fsck: %d objects ok, %d corrupt in %s\n",
		rep.Objects, len(rep.Corrupt), dir)
	if len(rep.Corrupt) > 0 {
		return 1
	}
	return 0
}

// provider is the daemon's workload source: the full benchmark
// preparation pipeline (build, profile on the small input, relink),
// invoked lazily and memoized per name by the engine.
func provider(ctx context.Context, name string) (*engine.Workload, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w, err := experiment.Prepare(name)
	if err != nil {
		return nil, err
	}
	return &engine.Workload{Name: name, Original: w.Original, Placed: w.Placed}, nil
}

// runOneshot is the smoke test behind ROADMAP's tier-1 gate: serve
// one small batch over a real loopback socket and demand the wire
// results match a direct engine run of the same cells exactly.
func runOneshot(srv *serve.Server, eng *engine.Engine, base sim.Config) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "wpserved: oneshot smoke on %s\n", url)

	// The batch is deliberately coalescible: baseline and waymem share
	// the original binary, the two way-placement sizes share the relaid
	// one, so the server must form two single-pass groups and still
	// answer per-cell results identical to a direct run.
	icache := api.GeometryOf(experiment.XScaleICache())
	reqs := []api.RunRequest{
		{Workload: "crc", ICache: icache, Scheme: api.SchemeBaseline},
		{Workload: "crc", ICache: icache, Scheme: api.SchemeWayMemoization},
		{Workload: "crc", ICache: icache, Scheme: api.SchemeWayPlacement,
			WPSizeBytes: experiment.InitialWPSize},
		{Workload: "crc", ICache: icache, Scheme: api.SchemeWayPlacement,
			WPSizeBytes: experiment.InitialWPSize / 2},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	resp, err := serve.NewClient(url).Run(ctx, reqs)
	if err != nil {
		fail(err)
	}

	// Reference: the same cells on a fresh engine.
	ref := engine.New(provider, engine.WithBaseConfig(base), engine.WithVerify(check.VerifyCell))
	if err := api.CheckIdentical(ctx, ref, reqs, resp); err != nil {
		fmt.Fprintf(os.Stderr, "wpserved: oneshot: %v\n", err)
		return 1
	}
	code := 0
	if eng.Groups() != 2 {
		fmt.Fprintf(os.Stderr, "wpserved: oneshot: server formed %d single-pass groups, want 2\n", eng.Groups())
		code = 1
	}
	for i, got := range resp.Results {
		if got.GroupID == "" {
			fmt.Fprintf(os.Stderr, "wpserved: oneshot: cell %d missing group_id\n", i)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintf(os.Stderr, "wpserved: oneshot ok (%d cells in %d single-pass groups, byte-identical to a direct engine run)\n",
			len(reqs), eng.Groups())
	}
	return code
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "wpserved: %v\n", err)
	os.Exit(1)
}
