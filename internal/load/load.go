// Package load is the concurrent-client load harness for wpserved.
// A Generator runs hundreds of independent clients against one
// daemon, each submitting batches drawn zipfian-hot from a fixed pool
// of canonical cells (so the warm run-cache path dominates, exactly
// like a production key distribution), mixing sync and async
// submissions, varying batch sizes, honouring 429 backpressure with
// capped Retry-After backoff, and — with churn — hanging up
// mid-request to exercise the server's abandoned-connection paths.
// Everything is instrumented through internal/obs; Report distils the
// run into the p50/p99 latencies and error rates that the SLO check
// and the BENCH_wpload.json snapshot assert on.
package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
)

// Metric names the generator registers. All are client-side views:
// load_http_request_ns is one HTTP round trip, load_batch_ns one
// batch end-to-end (submit, retries, async polls until done),
// load_cell_ns the batch wall time amortised per cell.
const (
	MetricRequestNS = "load_http_request_ns"
	MetricBatchNS   = "load_batch_ns"
	MetricCellNS    = "load_cell_ns"
	MetricRequests  = "load_http_requests_total"
	MetricBatches   = "load_batches_total"
	MetricCells     = "load_cells_total"
	Metric429       = "load_http_429_total"
	MetricOverQuota = "load_http_over_quota_total"
	MetricRetries   = "load_retries_total"
	MetricDropped   = "load_dropped_total"
	MetricErrors    = "load_errors_total"
	MetricAborts    = "load_aborts_total"
	MetricPolls     = "load_async_polls_total"
)

// batchTimeout bounds one batch end-to-end, retries and polls
// included.
const batchTimeout = 60 * time.Second

// pollInterval spaces a client's async status polls.
const pollInterval = 5 * time.Millisecond

// Options configures a Generator. Zero values pick the documented
// defaults, except AsyncFraction and Churn, where zero means none;
// only Pool and BaseURL are mandatory.
type Options struct {
	// BaseURL is the wpserved instance under load, e.g. the URL of a
	// Loopback or a real daemon's http://host:port.
	BaseURL string
	// Pool is the canonical cell pool, hottest first: client batches
	// are drawn from it with zipfian rank skew (see ZipfS).
	Pool []api.RunRequest

	Clients  int           // concurrent clients (default 200)
	Duration time.Duration // how long clients keep submitting (default 5s)

	// Tenant, when non-empty, stamps every request with the
	// X-WP-Tenant header, so the whole fleet is accounted (and
	// quota'd) as one tenant on the server.
	Tenant api.Tenant

	// AsyncFraction of batches submit with "async": true and poll
	// GET /v1/runs/{id} until done; 0 submits every batch sync.
	AsyncFraction float64
	// MaxBatchCells bounds batch size; each batch holds uniform
	// 1..MaxBatchCells cells (default 8).
	MaxBatchCells int
	// ZipfS is the zipfian skew exponent over pool ranks; must be > 1
	// for rand.NewZipf, anything lower (including zero) becomes the
	// default 1.2. Larger is hotter.
	ZipfS float64
	// Churn is the probability a client abandons a submission
	// mid-request — cancelling the request context within ~2ms and
	// reconnecting fresh — to simulate client crashes and timeouts
	// (default 0).
	Churn float64

	// MaxRetries bounds resubmissions after 429 before the batch is
	// counted dropped (default 8). MaxRetryBackoff caps how much of
	// the server's Retry-After a client honours, so a short load run
	// is not parked forever by a 1s hint (default 250ms).
	MaxRetries      int
	MaxRetryBackoff time.Duration

	// Registry receives the load_* instruments (default: a private
	// registry, readable via Generator.Registry).
	Registry *obs.Registry
	// Seed makes client RNGs deterministic (default 1).
	Seed int64
}

func (o *Options) setDefaults() {
	if o.Clients == 0 {
		o.Clients = 200
	}
	if o.Duration == 0 {
		o.Duration = 5 * time.Second
	}
	if o.MaxBatchCells == 0 {
		o.MaxBatchCells = 8
	}
	if o.ZipfS <= 1 {
		o.ZipfS = 1.2
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 8
	}
	if o.MaxRetryBackoff == 0 {
		o.MaxRetryBackoff = 250 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Generator drives Options.Clients concurrent clients for
// Options.Duration and reports what they saw.
type Generator struct {
	opt Options

	// transport is shared by every client: one keep-alive pool sized
	// for the whole fleet of clients (serve.NewTransport), so a steady
	// run reuses a bounded set of warm connections instead of cycling
	// an ephemeral port per request. Clients stay independent above it
	// — each owns its RNG and http.Client — but the sockets pool.
	transport *http.Transport

	requestNS *obs.Histogram
	batchNS   *obs.Histogram
	cellNS    *obs.Histogram
	requests  *obs.Counter
	batches   *obs.Counter
	cells     *obs.Counter
	status429 *obs.Counter
	overQuota *obs.Counter
	retries   *obs.Counter
	dropped   *obs.Counter
	errors    *obs.Counter
	aborts    *obs.Counter
	polls     *obs.Counter
}

// New validates opt and builds a Generator with its instruments
// registered on opt.Registry.
func New(opt Options) (*Generator, error) {
	opt.setDefaults()
	if opt.BaseURL == "" {
		return nil, errors.New("load: Options.BaseURL is required")
	}
	if len(opt.Pool) == 0 {
		return nil, errors.New("load: Options.Pool is empty")
	}
	if opt.Clients < 1 {
		return nil, fmt.Errorf("load: Clients %d < 1", opt.Clients)
	}
	if opt.Churn < 0 || opt.Churn > 1 {
		return nil, fmt.Errorf("load: Churn %v outside [0,1]", opt.Churn)
	}
	if opt.AsyncFraction < 0 || opt.AsyncFraction > 1 {
		return nil, fmt.Errorf("load: AsyncFraction %v outside [0,1]", opt.AsyncFraction)
	}
	r := opt.Registry
	return &Generator{
		opt:       opt,
		transport: serve.NewTransport(opt.Clients),
		requestNS: r.Histogram(MetricRequestNS),
		batchNS:   r.Histogram(MetricBatchNS),
		cellNS:    r.Histogram(MetricCellNS),
		requests:  r.Counter(MetricRequests),
		batches:   r.Counter(MetricBatches),
		cells:     r.Counter(MetricCells),
		status429: r.Counter(Metric429),
		overQuota: r.Counter(MetricOverQuota),
		retries:   r.Counter(MetricRetries),
		dropped:   r.Counter(MetricDropped),
		errors:    r.Counter(MetricErrors),
		aborts:    r.Counter(MetricAborts),
		polls:     r.Counter(MetricPolls),
	}, nil
}

// Registry returns the registry holding the generator's instruments.
func (g *Generator) Registry() *obs.Registry { return g.opt.Registry }

// Run drives the full client fleet until Options.Duration elapses (or
// ctx is cancelled first) and returns the distilled Report. Batches
// in flight at the deadline are cut off and counted in neither the
// success nor the error totals.
func (g *Generator) Run(ctx context.Context) (*Report, error) {
	start := time.Now()
	rctx, cancel := context.WithTimeout(ctx, g.opt.Duration)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < g.opt.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g.runClient(rctx, id)
		}(i)
	}
	wg.Wait()
	g.transport.CloseIdleConnections()
	return g.report(time.Since(start)), nil
}

// newPicker returns a zipfian rank picker over [0,n): rank 0 is the
// hottest pool entry. Split out so the skew itself is testable.
func newPicker(rng *rand.Rand, s float64, n int) func() int {
	if n <= 1 {
		return func() int { return 0 }
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// runClient is one client's life: build a batch, submit it (sync or
// async), repeat until the run ends. Each client owns its RNG; the
// HTTP connections pool in the generator's shared transport.
func (g *Generator) runClient(ctx context.Context, id int) {
	rng := rand.New(rand.NewSource(g.opt.Seed + 7919*int64(id)))
	pick := newPicker(rng, g.opt.ZipfS, len(g.opt.Pool))
	client := &http.Client{Transport: g.transport}

	for ctx.Err() == nil {
		n := 1 + rng.Intn(g.opt.MaxBatchCells)
		reqs := make([]api.RunRequest, n)
		for i := range reqs {
			reqs[i] = g.opt.Pool[pick()]
		}
		async := rng.Float64() < g.opt.AsyncFraction
		abort := rng.Float64() < g.opt.Churn
		g.oneBatch(ctx, client, rng, reqs, async, abort)
	}
}

// oneBatch submits one batch and follows it to completion: retry
// loop on 429, poll loop when async, context hang-up when this
// client is churning.
func (g *Generator) oneBatch(ctx context.Context, client *http.Client, rng *rand.Rand, reqs []api.RunRequest, async, abort bool) {
	body, err := json.Marshal(api.BatchRequest{APIVersion: api.Version, Requests: reqs, Async: async})
	if err != nil {
		g.errors.Inc()
		return
	}
	bctx, cancel := context.WithTimeout(ctx, batchTimeout)
	defer cancel()

	if abort {
		// Churn: hang up mid-request (0–2ms in) and reconnect fresh.
		// Whatever the server had done so far is abandoned; the only
		// record is the abort counter. Cancelling the context kills
		// this request's own connection — the shared transport's other
		// pooled connections (other clients' warm sockets) are
		// untouched, exactly like one process crashing out of a fleet.
		actx, acancel := context.WithCancel(bctx)
		timer := time.AfterFunc(time.Duration(rng.Int63n(int64(2*time.Millisecond))), acancel)
		g.send(actx, client, http.MethodPost, "/v1/runs", body)
		timer.Stop()
		acancel()
		g.aborts.Inc()
		return
	}

	start := time.Now()
	resp, ok := g.submitWithRetry(bctx, client, rng, body)
	if !ok {
		return // counted as dropped or errored inside
	}
	if async {
		if resp, ok = g.pollUntilDone(bctx, client, resp); !ok {
			return
		}
	}
	wall := time.Since(start)
	if resp.Status != api.StatusDone {
		g.errors.Inc()
		return
	}
	g.batches.Inc()
	g.cells.Add(uint64(len(reqs)))
	g.batchNS.ObserveDuration(wall)
	per := wall / time.Duration(len(reqs))
	for range reqs {
		g.cellNS.ObserveDuration(per)
	}
}

// submitWithRetry POSTs the batch, resubmitting after a retryable
// 429 with the server's Retry-After capped at MaxRetryBackoff, each
// wait drawn from [½, 1] of the capped hint with the client's RNG
// (api.RetryPolicy). Returns ok=false once the batch is accounted for
// as dropped or errored.
func (g *Generator) submitWithRetry(ctx context.Context, client *http.Client, rng *rand.Rand, body []byte) (*api.BatchResponse, bool) {
	retry := api.RetryPolicy{Retries: g.opt.MaxRetries, Ceiling: g.opt.MaxRetryBackoff, Jitter: rng}
	for attempt := 0; ; attempt++ {
		br, err := g.send(ctx, client, http.MethodPost, "/v1/runs", body)
		v, werr := retry.Wait(ctx, err, attempt)
		var busy *api.BusyError
		switch {
		case v == api.Waited:
			g.retries.Inc()
			if werr == nil {
				continue
			}
		case v == api.GaveUp:
			g.dropped.Inc()
		case err == nil:
			return br, true
		case errors.As(err, &busy) || ctx.Err() == nil:
			// A permanent 429 (an oversized batch) is the server's
			// "never"; anything else counts unless this batch's own
			// deadline cut it off.
			g.errors.Inc()
		}
		return nil, false
	}
}

// pollUntilDone follows an accepted async job from its 202 answer
// until it reports done or failed (api.Poll). A 404 here is exactly
// the orphaned-202 bug the harness exists to catch, and lands in
// load_errors_total.
func (g *Generator) pollUntilDone(ctx context.Context, client *http.Client, accepted *api.BatchResponse) (*api.BatchResponse, bool) {
	br, err := api.Poll(ctx, pollInterval, accepted, func(ctx context.Context) (*api.BatchResponse, error) {
		g.polls.Inc()
		return g.send(ctx, client, http.MethodGet, "/v1/runs/"+accepted.JobID, nil)
	})
	if err != nil && ctx.Err() == nil {
		g.errors.Inc()
	}
	return br, err == nil
}

// send is one instrumented round trip through api.Exchange. 429s are
// tallied here, over_quota ones (this tenant's own doing) separately
// from global queue_full backpressure.
func (g *Generator) send(ctx context.Context, client *http.Client, method, path string, body []byte) (*api.BatchResponse, error) {
	start := time.Now()
	br, err := api.Exchange(ctx, client, method, g.opt.BaseURL+path, g.opt.Tenant, body)
	g.requests.Inc()
	g.requestNS.ObserveSince(start)
	var busy *api.BusyError
	if errors.As(err, &busy) {
		g.status429.Inc()
		if busy.Code == api.CodeOverQuota {
			g.overQuota.Inc()
		}
	}
	return br, err
}

// Report distils one load run. Latency quantiles come from the obs
// histograms: the upper bound of the power-of-two bucket the target
// sample falls into, clamped to the slowest sample actually observed
// — conservative, never flattering, but never reporting a tail beyond
// anything that happened.
type Report struct {
	Elapsed time.Duration
	opt     Options // the generator's resolved options: the run's shape

	Requests   uint64 // HTTP round trips, all kinds
	Batches    uint64 // batches completed with status done
	Cells      uint64 // cells inside completed batches
	Status429  uint64 // backpressured responses observed
	OverQuota  uint64 // 429s carrying code=over_quota (our own quota)
	Retries    uint64 // resubmissions after a 429
	Dropped    uint64 // batches given up after MaxRetries
	Errors     uint64 // batches ending in transport/decode/non-done errors
	Aborts     uint64 // batches abandoned mid-request by churn
	AsyncPolls uint64 // GET /v1/runs/{id} polls issued

	HTTPP50, HTTPP99   time.Duration // per HTTP round trip
	BatchP50, BatchP99 time.Duration // per batch end-to-end
	CellP50, CellP99   time.Duration // batch wall amortised per cell

	Rate429          float64 // Status429 / Requests
	ErrorRate        float64 // Errors / batches reaching a verdict
	BatchesPerSecond float64
	CellsPerSecond   float64
}

func (g *Generator) report(elapsed time.Duration) *Report {
	r := &Report{
		Elapsed:    elapsed,
		opt:        g.opt,
		Requests:   g.requests.Value(),
		Batches:    g.batches.Value(),
		Cells:      g.cells.Value(),
		Status429:  g.status429.Value(),
		OverQuota:  g.overQuota.Value(),
		Retries:    g.retries.Value(),
		Dropped:    g.dropped.Value(),
		Errors:     g.errors.Value(),
		Aborts:     g.aborts.Value(),
		AsyncPolls: g.polls.Value(),
		HTTPP50:    time.Duration(g.requestNS.Quantile(0.50)),
		HTTPP99:    time.Duration(g.requestNS.Quantile(0.99)),
		BatchP50:   time.Duration(g.batchNS.Quantile(0.50)),
		BatchP99:   time.Duration(g.batchNS.Quantile(0.99)),
		CellP50:    time.Duration(g.cellNS.Quantile(0.50)),
		CellP99:    time.Duration(g.cellNS.Quantile(0.99)),
	}
	if r.Requests > 0 {
		r.Rate429 = float64(r.Status429) / float64(r.Requests)
	}
	if verdicts := r.Batches + r.Errors + r.Dropped; verdicts > 0 {
		r.ErrorRate = float64(r.Errors) / float64(verdicts)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		r.BatchesPerSecond = float64(r.Batches) / secs
		r.CellsPerSecond = float64(r.Cells) / secs
	}
	return r
}

// SLO is the acceptance envelope a Report is checked against. Zero
// duration fields and negative rate fields are unchecked.
type SLO struct {
	HTTPP50Max   time.Duration
	HTTPP99Max   time.Duration
	CellP99Max   time.Duration
	Max429Rate   float64
	MaxErrorRate float64
}

// Check returns one human-readable violation per SLO the report
// misses; empty means the run passed.
func (s SLO) Check(r *Report) []string {
	var v []string
	if r.Batches == 0 {
		v = append(v, "no batch completed — the run measured nothing")
	}
	if s.HTTPP50Max > 0 && r.HTTPP50 > s.HTTPP50Max {
		v = append(v, fmt.Sprintf("http p50 %v > max %v", r.HTTPP50, s.HTTPP50Max))
	}
	if s.HTTPP99Max > 0 && r.HTTPP99 > s.HTTPP99Max {
		v = append(v, fmt.Sprintf("http p99 %v > max %v", r.HTTPP99, s.HTTPP99Max))
	}
	if s.CellP99Max > 0 && r.CellP99 > s.CellP99Max {
		v = append(v, fmt.Sprintf("cell p99 %v > max %v", r.CellP99, s.CellP99Max))
	}
	if s.Max429Rate >= 0 && r.Rate429 > s.Max429Rate {
		v = append(v, fmt.Sprintf("429 rate %.3f > max %.3f", r.Rate429, s.Max429Rate))
	}
	if s.MaxErrorRate >= 0 && r.ErrorRate > s.MaxErrorRate {
		v = append(v, fmt.Sprintf("error rate %.4f > max %.4f (%d errors)", r.ErrorRate, s.MaxErrorRate, r.Errors))
	}
	return v
}
