package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
)

// Metric names the coordinator registers on the installed registry.
// The per-backend families are labelled with the backend's name, so a
// scrape shows how load, latency and cache warmth distribute across
// the ring.
const (
	// MetricBatches: batches accepted (sync and async).
	MetricBatches = "fleet_batches_total"
	// MetricRejected: batches the coordinator refused with 429
	// (its own queue full, or every owner busy past the retry budget).
	MetricRejected = "fleet_rejected_total"
	// MetricOverQuota: batches refused because the submitting tenant
	// was already running TenantSlots batches through this coordinator.
	MetricOverQuota = "fleet_over_quota_total"
	// MetricInflight: batches currently being scattered or merged.
	MetricInflight = "fleet_inflight_batches"
	// MetricSubBatches: per-backend sub-batches dispatched.
	MetricSubBatches = "fleet_subbatches_total"
	// MetricFailovers: sub-batches rerouted to a successor ring node
	// after their owner failed.
	MetricFailovers = "fleet_failovers_total"
	// MetricBackendRequests / MetricBackendErrors / MetricBackendNS:
	// per-backend request counts, hard failures and round-trip latency.
	MetricBackendRequests = "fleet_backend_requests_total"
	MetricBackendErrors   = "fleet_backend_errors_total"
	MetricBackendNS       = "fleet_backend_request_ns"
	// MetricBackendHits / MetricBackendMisses: cells a backend answered
	// from its warm cache vs cells it had to simulate — summed across
	// the ring they are the fleet-wide hit ratio, and per backend they
	// show whether sharding is keeping each stream's cells, and so
	// each cell's repeats, on one node.
	MetricBackendHits   = "fleet_backend_cell_hits_total"
	MetricBackendMisses = "fleet_backend_cell_misses_total"
)

// Options configures a Coordinator.
type Options struct {
	// Backends are the wpserved base URLs forming the ring; required.
	Backends []string
	// Registry, when non-nil, receives the fleet_* instruments and is
	// re-exposed at GET /metrics.
	Registry *obs.Registry
	// VNodes is the ring's virtual-node count per backend; <= 0 means
	// DefaultVNodes.
	VNodes int
	// QueueDepth bounds concurrently coordinated batches; further
	// POSTs get 429. Default 64 (a coordinator only scatters and
	// merges, so its slots are much cheaper than a backend's).
	QueueDepth int
	// TenantSlots bounds how many batches one tenant may have in
	// flight through the coordinator at once; beyond it the tenant
	// gets 429 over_quota while other tenants keep their share of
	// QueueDepth. 0 disables per-tenant limiting (pre-tenancy
	// behaviour). The deeper weighted-fair queueing happens on the
	// backends — the coordinator only caps, it does not reorder.
	TenantSlots int
	// MaxBatchCells bounds the cells of one incoming batch. Default
	// 4096. It must not exceed the backends' own limit: a sub-batch is
	// never larger than its batch.
	MaxBatchCells int
	// Failover is how many successor ring nodes a sub-batch tries
	// after its owner hard-fails (connection refused, 5xx). 429s are
	// NOT failed over — they are retried against the owner with its
	// Retry-After hint and then propagated, preserving the
	// one-stream-one-backend cache and trace affinity. Default 1;
	// negative disables failover.
	Failover int
	// BackendRetries bounds per-attempt 429 retries against one
	// backend. Default 4.
	BackendRetries int
	// RetryAfter is the coordinator's own 429 backoff hint. Default 1s.
	RetryAfter time.Duration
	// JobTTL is how long a finished async job stays pollable. 0 means
	// 10 minutes; negative disables eviction.
	JobTTL time.Duration
	// HTTP is the client used for backend traffic; nil means a
	// keep-alive pooled transport (serve.NewTransport) sized so a full
	// queue of concurrent sub-batches reuses connections.
	HTTP *http.Client
}

// backendRetryBackoff caps how much of a backend's Retry-After hint
// the coordinator honours per retry, so a deep hint cannot park a sync
// caller.
const backendRetryBackoff = 250 * time.Millisecond

// healthTimeout bounds each backend probe of GET /healthz.
const healthTimeout = 2 * time.Second

// backend is one ring member plus its client and instruments.
type backend struct {
	name   string // metric label: the URL without its scheme
	client *serve.Client

	requests *obs.Counter
	errors   *obs.Counter
	reqNS    *obs.Histogram
	hits     *obs.Counter
	misses   *obs.Counter
}

// Coordinator scatters v1 batches over a consistent-hash ring of
// wpserved backends and gathers the answers. It speaks the identical
// wire surface a single wpserved does — POST /v1/runs (sync and
// async), GET /v1/runs/{id}, /healthz, /metrics — so serve.Client and
// RemoteRunner point at it unchanged.
type Coordinator struct {
	opt      Options
	ring     *Ring
	backends []*backend
	jobs     *api.JobTable[*fleetJob]
	out      api.Responder
	// sched admits every batch: QueueDepth slots, TenantSlots per
	// tenant, no parking. It owns the draining flag, and wg counts
	// the batches it has admitted and not yet released.
	sched *serve.Scheduler
	wg    sync.WaitGroup

	batches    *obs.Counter
	rejected   *obs.Counter
	overQuota  *obs.Counter
	subbatches *obs.Counter
	failovers  *obs.Counter
}

// New builds a coordinator over the given backend URLs.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Backends) == 0 {
		return nil, errors.New("fleet: Options.Backends is required")
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 64
	}
	if opt.MaxBatchCells <= 0 {
		opt.MaxBatchCells = 4096
	}
	if opt.BackendRetries <= 0 {
		opt.BackendRetries = 4
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
	}
	if opt.JobTTL == 0 {
		opt.JobTTL = 10 * time.Minute
	}
	ring, err := NewRing(opt.Backends, opt.VNodes)
	if err != nil {
		return nil, err
	}
	httpc := opt.HTTP
	if httpc == nil {
		httpc = &http.Client{Transport: serve.NewTransport(opt.QueueDepth * 2)}
	}
	c := &Coordinator{
		opt:  opt,
		ring: ring,
		jobs: api.NewJobTable[*fleetJob](opt.JobTTL),
		out: api.Responder{OnWriteError: func(err error) {
			log.Printf("fleet: response body write failed after headers: %v", err)
		}},
		batches:    opt.Registry.Counter(MetricBatches),
		rejected:   opt.Registry.Counter(MetricRejected),
		overQuota:  opt.Registry.Counter(MetricOverQuota),
		subbatches: opt.Registry.Counter(MetricSubBatches),
		failovers:  opt.Registry.Counter(MetricFailovers),
	}
	c.sched = serve.NewScheduler(opt.QueueDepth, opt.QueueDepth, serve.TenancyOptions{Slots: opt.TenantSlots},
		nil, opt.Registry.Gauge(MetricInflight), &c.wg)
	for _, url := range opt.Backends {
		name := strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
		c.backends = append(c.backends, &backend{
			name:     name,
			client:   &serve.Client{BaseURL: strings.TrimRight(url, "/"), HTTP: httpc},
			requests: opt.Registry.Counter(obs.LabeledName(MetricBackendRequests, "backend", name)),
			errors:   opt.Registry.Counter(obs.LabeledName(MetricBackendErrors, "backend", name)),
			reqNS:    opt.Registry.Histogram(obs.LabeledName(MetricBackendNS, "backend", name)),
			hits:     opt.Registry.Counter(obs.LabeledName(MetricBackendHits, "backend", name)),
			misses:   opt.Registry.Counter(obs.LabeledName(MetricBackendMisses, "backend", name)),
		})
	}
	return c, nil
}

// Ring returns the coordinator's hash ring (read-only).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Handler returns the route mux — the same shape as serve.Server's.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", c.handleRuns)
	mux.HandleFunc("GET /v1/runs/{id}", c.handleJob)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", api.MetricsHandler(c.opt.Registry))
	return mux
}

// Shutdown refuses new batches and waits for in-flight scatters to
// finish, then stops the job-eviction timers.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.sched.SetDraining()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	defer c.jobs.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("fleet: shutdown: %w", ctx.Err())
	}
}

func (c *Coordinator) handleRuns(w http.ResponseWriter, r *http.Request) {
	tenant, echo, rej := api.RequestTenant(r)
	var breq *api.BatchRequest
	var specs []engine.RunSpec
	if rej == nil {
		// Validate centrally — a batch either shards cleanly or fails
		// with the same answer a single backend would give. Validation
		// also yields the specs whose streams the ring routes by.
		breq, specs, rej = api.DecodeBatch(w, r, c.opt.MaxBatchCells, "coordinator")
	}
	if rej != nil {
		if rej.Status == http.StatusTooManyRequests {
			c.rejected.Inc() // batch_too_large
		}
		c.out.JSON(w, rej.Status, rej.Body)
		return
	}
	// Route on the fetch stream, not the cell: every cell of a stream
	// lands on one backend, which executes the program once and
	// replays its recorded trace for the stream's later cells.
	streams := make([]string, len(specs))
	for i, s := range specs {
		streams[i] = s.Stream()
	}
	subs := api.SplitBatch(breq.Requests, c.ring.Len(), func(i int) int { return c.ring.Owner(streams[i]) })

	// Every batch is admitted as sync: the coordinator holds its slot
	// only while it scatters, also for an async batch.
	switch c.sched.Admit(r.Context(), string(tenant), false, len(breq.Requests)) {
	case serve.AdmitOverQuota:
		c.rejected.Inc()
		c.overQuota.Inc()
		c.out.Busy(w, fmt.Sprintf("tenant %q over quota on this coordinator", tenant),
			api.CodeOverQuota, c.opt.RetryAfter)
		return
	case serve.AdmitQueueFull:
		c.rejected.Inc()
		c.out.Busy(w, "coordinator at capacity", api.CodeQueueFull, c.opt.RetryAfter)
		return
	}
	defer c.sched.Release(string(tenant), false)
	c.batches.Inc()

	if breq.Async {
		c.startAsync(w, r.Context(), tenant, echo, breq, subs, streams)
		return
	}

	outs := c.scatter(r.Context(), tenant, subs, streams, false)
	if c.propagateBusy(w, outs) {
		return
	}
	resp := mergeOutcomes(breq.Requests, subs, outs)
	resp.Tenant = echo
	c.out.Batch(w, http.StatusOK, resp)
}

// subOutcome is one sub-batch's scatter result.
type subOutcome struct {
	resp    *api.BatchResponse // nil when the sub-batch failed
	err     error              // terminal error when resp is nil
	busy    *api.BusyError     // set when the terminal error was a retryable 429
	backend int                // backend index that answered (post-failover)
}

// scatter dispatches every sub-batch to its ring owner concurrently
// and waits for all of them. The resolved tenant rides along as the
// X-WP-Tenant header of every sub-request, so each backend's own
// quota and weighted-fair scheduler sees the originating client, not
// the coordinator's address. async selects the backend-side execution
// mode (the 202 responses then carry each backend's sub job id).
func (c *Coordinator) scatter(ctx context.Context, tenant api.Tenant, subs []api.SubBatch, streams []string, async bool) []subOutcome {
	outs := make([]subOutcome, len(subs))
	var wg sync.WaitGroup
	for si := range subs {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			outs[si] = c.runSub(ctx, tenant, subs[si], streams, async)
		}(si)
	}
	wg.Wait()
	return outs
}

// runSub sends one sub-batch to its owner, retrying 429s against the
// same backend with its Retry-After hint, and failing over to up to
// Options.Failover successor ring nodes only on hard errors
// (connection failures, 5xx). Busy owners are NOT failed over: moving
// a saturated shard's streams to its neighbour would simulate them a
// second time and melt the neighbour too — backpressure propagates to
// the client instead. The failover order is the ring sequence of the
// sub-batch's first stream.
func (c *Coordinator) runSub(ctx context.Context, tenant api.Tenant, sub api.SubBatch, streams []string, async bool) subOutcome {
	body, err := json.Marshal(api.BatchRequest{
		APIVersion: api.Version,
		Requests:   sub.Requests,
		Async:      async,
	})
	if err != nil {
		return subOutcome{err: err}
	}
	seq := c.ring.Sequence(streams[sub.Indices[0]], 1+max(0, c.opt.Failover))
	var last subOutcome
	for ai, bi := range seq {
		if ai > 0 {
			c.failovers.Inc()
		}
		c.subbatches.Inc()
		b := c.backends[bi]
		resp, err := c.trySubmit(ctx, b, tenant, body)
		if err == nil {
			if !async {
				c.countCells(b, resp)
			}
			return subOutcome{resp: resp, backend: bi}
		}
		var busy *api.BusyError
		if errors.As(err, &busy) && !busy.Permanent {
			// The owner is alive but saturated: propagate its hint.
			return subOutcome{err: err, busy: busy}
		}
		last = subOutcome{err: fmt.Errorf("fleet: backend %s: %w", b.name, err)}
		if ctx.Err() != nil {
			break
		}
	}
	return last
}

// trySubmit performs one sub-batch POST against one backend,
// retrying up to BackendRetries 429s on their Retry-After hint capped
// at backendRetryBackoff. A backend still busy past that budget
// answers a retryable *api.BusyError carrying its code and hint.
func (c *Coordinator) trySubmit(ctx context.Context, b *backend, tenant api.Tenant, body []byte) (*api.BatchResponse, error) {
	retry := api.RetryPolicy{Retries: c.opt.BackendRetries, Ceiling: backendRetryBackoff}
	for attempt := 0; ; attempt++ {
		resp, err := c.send(ctx, b, http.MethodPost, "/v1/runs", tenant, body)
		switch v, werr := retry.Wait(ctx, err, attempt); {
		case werr != nil:
			return nil, werr
		case v == api.GaveUp:
			var busy *api.BusyError
			errors.As(err, &busy)
			return nil, &api.BusyError{
				Msg: "backend busy past the retry budget", Code: busy.Code, RetryAfter: busy.RetryAfter,
			}
		case v == api.Done:
			return resp, err
		}
	}
}

// send is one instrumented round trip to a backend through
// api.Exchange, under the given tenant identity (empty adds no
// header). Transport failures and answers other than 2xx, 429 and 404
// count as backend errors: they are the failover triggers.
func (c *Coordinator) send(ctx context.Context, b *backend, method, path string, tenant api.Tenant, body []byte) (*api.BatchResponse, error) {
	b.requests.Inc()
	start := time.Now()
	resp, err := api.Exchange(ctx, b.client.HTTP, method, b.client.BaseURL+path, tenant, body)
	b.reqNS.ObserveSince(start)
	var busy *api.BusyError
	if err != nil && !errors.As(err, &busy) && !notFound(err) {
		b.errors.Inc()
	}
	return resp, err
}

func notFound(err error) bool {
	var se *api.StatusError
	return errors.As(err, &se) && se.Status == http.StatusNotFound
}

// countCells books each answered cell on the backend's hit/miss
// series. Summed across backends these are the fleet-wide cache
// ratio; a healthy ring shows every repeat cell as a hit on exactly
// one backend.
func (c *Coordinator) countCells(b *backend, resp *api.BatchResponse) {
	for i := range resp.Results {
		if resp.Results[i].Stats == nil {
			continue
		}
		if resp.Results[i].CacheHit {
			b.hits.Inc()
		} else {
			b.misses.Inc()
		}
	}
}

// propagateBusy answers 429 when the scatter ended in backpressure
// (busyOutcome), with the coordinator's own hint standing in for a
// zero one, and reports whether it did.
func (c *Coordinator) propagateBusy(w http.ResponseWriter, outs []subOutcome) bool {
	retry, code, busy := busyOutcome(outs)
	if !busy {
		return false
	}
	if retry <= 0 {
		retry = c.opt.RetryAfter
	}
	c.rejected.Inc()
	c.out.Busy(w, "fleet at capacity", code, retry)
	return true
}

// busyOutcome decides whether a scatter should surface as coordinator
// backpressure: at least one sub-batch ended busy-retryable and none
// hard-failed. The propagated Retry-After is the largest hint any
// backend sent, and the propagated code is the most global condition
// observed — one backend's queue_full dominates another's over_quota,
// since resubmitting cannot help while any owner's pool is full.
// (Results already gathered are discarded — they are warm on their
// backends, so the client's resubmission re-collects them as pure
// cache hits.)
func busyOutcome(outs []subOutcome) (time.Duration, string, bool) {
	var retry time.Duration
	code := ""
	busy := false
	for _, o := range outs {
		if o.resp == nil && o.busy == nil {
			return 0, "", false // a hard failure: report per-cell errors instead
		}
		if o.busy != nil {
			busy = true
			if o.busy.RetryAfter > retry {
				retry = o.busy.RetryAfter
			}
			if code != api.CodeQueueFull {
				if o.busy.Code == api.CodeQueueFull || o.busy.Code == api.CodeOverQuota {
					code = o.busy.Code
				}
			}
		}
	}
	if code == "" && busy {
		code = api.CodeQueueFull
	}
	return retry, code, busy
}

// mergeOutcomes reassembles sub-batch responses into the batch answer
// in original cell order, stamping the batch's own deterministic job
// id.
func mergeOutcomes(reqs []api.RunRequest, subs []api.SubBatch, outs []subOutcome) *api.BatchResponse {
	resps := make([]*api.BatchResponse, len(outs))
	errs := make([]error, len(outs))
	for i, o := range outs {
		resps[i], errs[i] = o.resp, o.err
	}
	resp := api.MergeSubResponses(len(reqs), subs, resps, errs)
	resp.JobID = api.BatchKey(reqs)
	return resp
}
