// Package serve exposes the experiment engine as a long-running JSON
// service. One wpserved process owns a single engine.Engine, so every
// client — concurrent figure sweeps, ad hoc curl requests, repeated
// CI runs — shares one warm memoized run cache: a cell any client has
// ever requested is simulated exactly once for the life of the
// daemon.
//
// The wire surface is internal/api: POST /v1/runs takes a
// BatchRequest and answers synchronously by default, or — with
// "async": true — immediately with a deterministic job id
// (api.BatchKey) to poll at GET /v1/runs/{id}. Identical async
// batches coalesce onto one job, so re-submissions attach instead of
// duplicating work. GET /healthz reports liveness and queue levels;
// GET /metrics re-exposes the installed obs.Registry in Prometheus
// text (or JSON with ?format=json).
//
// Backpressure is explicit: a bounded batch queue answers 429 with a
// Retry-After header (never OOM) once the server is saturated, and
// oversized batches are rejected the same way before any cell runs.
// Shutdown drains: in-flight batches run to completion while the
// listener stops accepting new work.
package serve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/obs"
	"wayplace/internal/store"
)

// Metric names the server registers on the installed registry, next
// to the engine_* instruments of the shared engine.
const (
	// MetricBatches: batches accepted (sync and async).
	MetricBatches = "serve_batches_total"
	// MetricRejected: batches refused with 429 (queue full or
	// oversized).
	MetricRejected = "serve_rejected_total"
	// MetricInflight: batches currently queued or running.
	MetricInflight = "serve_inflight_batches"
	// MetricCellHits is the per-cell run-cache hit family; each series
	// is labelled with the cell's canonical engine.RunSpec.Key(), so a
	// scrape shows exactly which cells the warm cache is serving.
	MetricCellHits = "serve_run_cache_hits_total"
	// MetricWriteErrors: response bodies that failed mid-write after
	// headers were sent. The client saw a truncated 200 — invisible in
	// status-code metrics, so it gets its own counter.
	MetricWriteErrors = "serve_write_errors_total"
	// MetricReplayJobs: journal jobs currently being replayed after a
	// restart (gauge — drops to 0 once boot recovery is complete).
	MetricReplayJobs = "serve_replay_jobs"
	// MetricReplayedJobs: journal jobs recovered across restarts, ever.
	MetricReplayedJobs = "serve_replayed_jobs_total"
	// MetricTenantBatches is the per-tenant accepted-batch family,
	// labelled by tenant id (cardinality-capped like MetricCellHits).
	MetricTenantBatches = "serve_tenant_batches_total"
	// MetricTenantOverQuota counts per-tenant quota rejections — the
	// 429s only that tenant's own traffic caused.
	MetricTenantOverQuota = "serve_tenant_over_quota_total"
	// MetricTenantRejected counts per-tenant queue_full rejections —
	// global backpressure attributed to whoever observed it.
	MetricTenantRejected = "serve_tenant_rejected_total"
	// MetricTenants: tenants currently holding or awaiting a slot in
	// the admission scheduler (gauge; a tenant is forgotten the moment
	// it holds nothing and has nothing parked).
	MetricTenants = "serve_tenants"
	// MetricAdmitWait is the admission-wait histogram in nanoseconds:
	// time from arrival to slot grant for admitted batches. Near zero
	// with an uncontended pool; under contention it is the queueing
	// delay the weighted-fair dispatcher is distributing.
	MetricAdmitWait = "serve_admission_wait_ns"

	// keyCardinalityCap bounds the number of distinct series per
	// labeled family (cell keys, tenant ids); past it, further values
	// land on the shared "overflow" series so a hostile or huge label
	// set cannot grow the registry without bound. The memo/overflow
	// mechanics live in obs.CounterVec.
	keyCardinalityCap = 1024
)

// Options configures a Server.
type Options struct {
	// Engine is the shared scheduler; required.
	Engine *engine.Engine
	// Registry, when non-nil, receives serve_* instruments and is
	// re-exposed at GET /metrics. Install the same registry on the
	// engine (engine.WithObserver) to serve its metrics too.
	Registry *obs.Registry
	// QueueDepth bounds how many batches may be queued or running at
	// once; further POSTs get 429. Default 8.
	QueueDepth int
	// MaxBatchCells bounds the cells of one batch; larger batches get
	// 429 before any work starts. Default 4096.
	MaxBatchCells int
	// RunTimeout bounds one batch's execution; 0 means none.
	RunTimeout time.Duration
	// RetryAfter is the backoff hint sent with 429. Default 1s.
	RetryAfter time.Duration
	// AsyncSlots caps how many queue slots async batches may hold at
	// once, reserving the remainder for sync callers so an async burst
	// can never starve them indefinitely. Default QueueDepth-1
	// (minimum 1); clamped to [1, QueueDepth].
	AsyncSlots int
	// JobTTL is how long a finished async job stays pollable before it
	// is evicted (poll answers 404 afterwards; resubmitting the batch
	// recomputes against the warm run cache). 0 means the default of
	// 10 minutes; negative disables eviction.
	JobTTL time.Duration
	// Journal, when non-nil, makes async jobs crash-durable: every
	// accepted batch is appended and fsync'd *before* its 202 leaves
	// the server, completions are marked, and New replays the journal
	// — unfinished jobs resume execution, finished ones stay pollable
	// for the remainder of their JobTTL. Pair it with a store-backed
	// engine (engine.WithStore) so replayed finished jobs reload their
	// results instead of re-simulating.
	Journal *store.Journal
	// Tenancy configures per-tenant quotas and weighted-fair dispatch.
	// The zero value is exactly the pre-tenancy behaviour: one shared
	// pool, immediate 429 when full.
	Tenancy TenancyOptions
	// ServiceDelay adds an artificial per-cell service time to every
	// batch, held while the batch occupies its admission slot. Load
	// and fairness harnesses need it: warm-cache cells are answered in
	// microseconds, so without a floor on slot occupancy the admission
	// scheduler never becomes the contended resource being measured.
	// 0 (the default, and the only sensible production value) adds
	// nothing.
	ServiceDelay time.Duration
}

// Server is the HTTP facade over one shared engine.
type Server struct {
	opt   Options
	jobs  *api.JobTable[*job]
	out   api.Responder
	wg    sync.WaitGroup
	sched *Scheduler // tenant-aware slot pool; owns the draining flag

	batches   *obs.Counter
	rejected  *obs.Counter
	writeErrs *obs.Counter
	replaying *obs.Gauge
	replayed  *obs.Counter
	admitWait *obs.Histogram
	// hits is the per-key run-cache hit family; the tenant families
	// share the same cardinality-cap discipline (obs.CounterVec).
	hits            *obs.CounterVec
	tenantBatches   *obs.CounterVec
	tenantOverQuota *obs.CounterVec
	tenantRejected  *obs.CounterVec
}

// job is one async batch. done closes when resp is final.
type job struct {
	id   string
	done chan struct{}

	mu     sync.Mutex
	status string
	resp   *api.BatchResponse
}

// New builds a server over the shared engine.
func New(opt Options) (*Server, error) {
	if opt.Engine == nil {
		return nil, fmt.Errorf("serve: Options.Engine is required")
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 8
	}
	if opt.MaxBatchCells <= 0 {
		opt.MaxBatchCells = 4096
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
	}
	if opt.AsyncSlots <= 0 {
		opt.AsyncSlots = opt.QueueDepth - 1
	}
	if opt.AsyncSlots < 1 {
		opt.AsyncSlots = 1
	}
	if opt.AsyncSlots > opt.QueueDepth {
		opt.AsyncSlots = opt.QueueDepth
	}
	if opt.JobTTL == 0 {
		opt.JobTTL = 10 * time.Minute
	}
	s := &Server{
		opt:             opt,
		jobs:            api.NewJobTable[*job](opt.JobTTL),
		batches:         opt.Registry.Counter(MetricBatches),
		rejected:        opt.Registry.Counter(MetricRejected),
		writeErrs:       opt.Registry.Counter(MetricWriteErrors),
		replaying:       opt.Registry.Gauge(MetricReplayJobs),
		replayed:        opt.Registry.Counter(MetricReplayedJobs),
		admitWait:       opt.Registry.Histogram(MetricAdmitWait),
		hits:            opt.Registry.CounterVec(MetricCellHits, "key", keyCardinalityCap),
		tenantBatches:   opt.Registry.CounterVec(MetricTenantBatches, "tenant", keyCardinalityCap),
		tenantOverQuota: opt.Registry.CounterVec(MetricTenantOverQuota, "tenant", keyCardinalityCap),
		tenantRejected:  opt.Registry.CounterVec(MetricTenantRejected, "tenant", keyCardinalityCap),
	}
	s.out = api.Responder{OnWriteError: s.countWriteError}
	s.sched = NewScheduler(opt.QueueDepth, opt.AsyncSlots, opt.Tenancy,
		opt.Registry.Gauge(MetricTenants), opt.Registry.Gauge(MetricInflight), &s.wg)
	if opt.Journal != nil {
		if err := s.replayJournal(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replayJournal is boot recovery: decode the journal, drop expired
// done jobs, compact the file to the survivors, and re-register every
// live job — unfinished ones resume execution, finished ones are
// recomputed (pure store/run-cache hits when the engine has a durable
// tier) so their 202 ids poll 200 again. Replayed jobs run outside
// the queue: they already held capacity when they were accepted, and
// refusing them now would orphan ids the server promised to honour.
func (s *Server) replayJournal() error {
	jobs, err := s.opt.Journal.Replay()
	if err != nil {
		return err
	}
	now := time.Now()
	var live []store.JournalJob
	for _, jj := range jobs {
		if jj.Done && s.opt.JobTTL >= 0 && now.Sub(jj.DoneAt) >= s.opt.JobTTL {
			continue // finished and expired: clients were told 404 already
		}
		live = append(live, jj)
	}
	if err := s.opt.Journal.Compact(live); err != nil {
		return err
	}
	for _, jj := range live {
		specs, err := api.ToSpecs(jj.Batch.Requests)
		if err != nil {
			// A batch that validated when accepted no longer does —
			// schema drift across a version upgrade. Nothing can run
			// it; dropping it is the honest answer (polls get 404).
			log.Printf("serve: journal job %s no longer validates, dropping: %v", jj.ID, err)
			continue
		}
		j := &job{id: jj.ID, status: api.StatusQueued, done: make(chan struct{})}
		s.jobs.Store(jj.ID, j)
		ttl := s.opt.JobTTL
		if jj.Done && ttl >= 0 {
			ttl -= now.Sub(jj.DoneAt) // keep, don't extend, the original eviction horizon
		}
		jj := jj
		s.wg.Add(1)
		s.replaying.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.replaying.Add(-1)
			j.setStatus(api.StatusRunning)
			resp := s.runBatch(context.Background(), jj.Batch.Requests, specs)
			j.finish(resp)
			if !jj.Done {
				if err := s.opt.Journal.Done(jj.ID); err != nil {
					log.Printf("serve: journal done mark for %s failed: %v", jj.ID, err)
				}
			}
			s.replayed.Inc()
			s.jobs.EvictAfter(jj.ID, j, ttl)
		}()
	}
	return nil
}

// Handler returns the route mux. Mount it on an http.Server (wpserved
// does) or an httptest.Server (the tests do).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", api.MetricsHandler(s.opt.Registry))
	return mux
}

// Shutdown drains the server: new batches are refused with 429 and
// the call blocks until every queued and in-flight batch (sync and
// async) has completed, or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sched.SetDraining()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	defer s.jobs.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// acquire claims a queue slot through the tenant-aware scheduler.
// With zero TenancyOptions this is the old non-blocking bounded
// queue; with AdmitWait set, contended admissions park in their
// tenant's sub-queue for the weighted-fair dispatcher. The global
// async reservation still holds: async batches are capped at
// Options.AsyncSlots held slots, so at least one slot always remains
// that only sync callers can take — an async burst saturating the
// queue cannot starve sync traffic indefinitely.
func (s *Server) acquire(ctx context.Context, tenant api.Tenant, async bool, cells int) Verdict {
	start := time.Now()
	v := s.sched.Admit(ctx, string(tenant), async, cells)
	if v == AdmitOK {
		// The scheduler counts the slot in s.wg and the inflight gauge
		// until its Release.
		s.admitWait.ObserveSince(start)
	}
	return v
}

func (s *Server) release(tenant api.Tenant, async bool) {
	s.sched.Release(string(tenant), async)
}

// reject answers one refused admission with the right machine-
// readable code and backoff hint: over_quota is the tenant's own
// condition with the (typically shorter) per-tenant hint, queue_full
// is global backpressure with the global hint.
func (s *Server) reject(w http.ResponseWriter, tenant api.Tenant, verdict Verdict) {
	s.rejected.Inc()
	if verdict == AdmitOverQuota {
		s.tenantOverQuota.With(string(tenant)).Inc()
		retry := s.opt.Tenancy.RetryAfter
		if retry <= 0 {
			retry = s.opt.RetryAfter
		}
		s.out.Busy(w, fmt.Sprintf("tenant %q over quota", tenant), api.CodeOverQuota, retry)
		return
	}
	s.tenantRejected.With(string(tenant)).Inc()
	s.out.Busy(w, "server at capacity", api.CodeQueueFull, s.opt.RetryAfter)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	tenant, echo, rej := api.RequestTenant(r)
	var breq *api.BatchRequest
	var specs []engine.RunSpec
	if rej == nil {
		breq, specs, rej = api.DecodeBatch(w, r, s.opt.MaxBatchCells, "server")
	}
	if rej != nil {
		if rej.Status == http.StatusTooManyRequests {
			s.rejected.Inc() // batch_too_large
		}
		s.out.JSON(w, rej.Status, rej.Body)
		return
	}
	if breq.Async {
		s.startAsync(w, r, tenant, echo, breq, specs)
		return
	}
	if verdict := s.acquire(r.Context(), tenant, false, len(breq.Requests)); verdict != AdmitOK {
		s.reject(w, tenant, verdict)
		return
	}
	defer s.release(tenant, false)
	s.batches.Inc()
	s.tenantBatches.With(string(tenant)).Inc()
	// Run under the request context so a disconnected client cancels
	// its own cells; Shutdown still drains connected clients because
	// http.Server.Shutdown leaves active request contexts alone.
	resp := s.runBatch(r.Context(), breq.Requests, specs)
	resp.Tenant = echo
	s.out.Batch(w, http.StatusOK, resp)
}

// startAsync registers (or re-attaches to) the deterministic job for
// this batch and answers 202 immediately.
//
// Ordering matters: the slot is acquired *before* the job is
// published. The old publish-then-acquire order had a race — on a
// full queue the loser deleted its freshly published job, but a
// concurrent identical submission that had already attached to it was
// told 202 with an id that would never run and then 404 on every
// poll. Now a job is only ever visible once its slot is secured, and
// the only deletions are TTL evictions after completion.
func (s *Server) startAsync(w http.ResponseWriter, r *http.Request, tenant api.Tenant, echo string, breq *api.BatchRequest, specs []engine.RunSpec) {
	id := api.BatchKey(breq.Requests)
	// An identical live batch is reported in its current state instead
	// of queueing duplicate work — no slot needed (and no quota
	// charged: the work is shared). A failed one (typically it waited
	// on a run entry whose owning request was cancelled mid-simulation)
	// is displaced by Attach, and this batch is queued afresh.
	if snap, ok := s.jobs.Attach(id); ok {
		s.out.Batch(w, http.StatusAccepted, snap.WithTenant(echo))
		return
	}
	if verdict := s.acquire(r.Context(), tenant, true, len(breq.Requests)); verdict != AdmitOK {
		s.reject(w, tenant, verdict)
		return
	}
	// Crash-ordering invariant: the accept record is on disk (fsync'd)
	// before any 202 can leave the server, so every id a client holds
	// is replayable after a SIGKILL. The journal write happens before
	// the job is published; losing the publish race below at worst
	// leaves a duplicate accept record, which replay deduplicates.
	if s.opt.Journal != nil {
		if err := s.opt.Journal.Accept(id, breq); err != nil {
			s.release(tenant, true)
			s.out.JSON(w, http.StatusInternalServerError, api.ErrorResponse{
				Error:     "journal append failed; refusing to hand out a non-durable job id: " + err.Error(),
				Code:      api.CodeStoreFailure,
				Retryable: true,
			})
			return
		}
	}
	j := &job{id: id, status: api.StatusQueued, done: make(chan struct{})}
	if cur, loaded := s.jobs.LoadOrStore(id, j); loaded {
		// Lost a publish race against an identical submission that
		// acquired its own slot: attach to the winner.
		s.release(tenant, true)
		s.out.Batch(w, http.StatusAccepted, cur.Snapshot().WithTenant(echo))
		return
	}
	s.batches.Inc()
	s.tenantBatches.With(string(tenant)).Inc()
	go func() {
		defer s.release(tenant, true)
		j.setStatus(api.StatusRunning)
		// Async jobs outlive their submitting request, so they run
		// under the background context; Shutdown waits for them.
		resp := s.runBatch(context.Background(), breq.Requests, specs)
		j.finish(resp)
		if s.opt.Journal != nil {
			if err := s.opt.Journal.Done(id); err != nil {
				log.Printf("serve: journal done mark for %s failed (job replays as unfinished): %v", id, err)
			}
		}
		s.jobs.Evict(id, j)
	}()
	s.out.JSON(w, http.StatusAccepted, api.BatchResponse{
		APIVersion: api.Version, JobID: id, Status: api.StatusQueued, Tenant: echo,
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Load(id)
	if !ok {
		s.out.JSON(w, http.StatusNotFound, api.ErrorResponse{
			Error: fmt.Sprintf("unknown job %q", id), Code: api.CodeJobUnknown,
		})
		return
	}
	// Job-status answers echo the poller's own explicit tenant — jobs
	// are shared across identical submissions, so the submitter's
	// identity would be wrong for an attached poller.
	// A finished job's snapshot carries the full result set, so polls
	// stream it like the sync path does.
	_, echo, _ := api.RequestTenant(r)
	s.out.Batch(w, http.StatusOK, j.Snapshot().WithTenant(echo))
}

// runBatch executes one validated batch on the shared engine and maps
// the outcome onto the wire schema. Per-cell failures become indexed
// CellFailures; the batch itself always yields a BatchResponse.
func (s *Server) runBatch(ctx context.Context, reqs []api.RunRequest, specs []engine.RunSpec) *api.BatchResponse {
	if s.opt.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.RunTimeout)
		defer cancel()
	}
	if s.opt.ServiceDelay > 0 {
		t := time.NewTimer(time.Duration(len(specs)) * s.opt.ServiceDelay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	results, err := s.opt.Engine.Run(ctx, specs)
	resp := &api.BatchResponse{
		APIVersion: api.Version,
		JobID:      api.BatchKey(reqs),
		Status:     api.StatusDone,
		Results:    make([]api.RunResult, len(results)),
	}
	failed := make(map[engine.RunSpec]string)
	if err != nil {
		if merr, ok := err.(*engine.MultiError); ok {
			for _, cellErr := range merr.Errors {
				if ce, ok := cellErr.(*engine.CellError); ok {
					failed[ce.Spec] = ce.Err.Error()
				}
			}
		} else {
			resp.Status = api.StatusFailed
			resp.Errors = append(resp.Errors, api.CellFailure{Index: -1, Error: err.Error()})
			return resp
		}
	}
	for i, res := range results {
		if res == nil {
			msg := failed[specs[i]]
			if msg == "" {
				msg = "cell failed"
			}
			resp.Status = api.StatusFailed
			resp.Errors = append(resp.Errors, api.CellFailure{Index: i, Key: specs[i].Key(), Error: msg})
			resp.Results[i] = api.RunResult{Request: reqs[i], Key: specs[i].Key()}
			continue
		}
		resp.Results[i] = api.ResultOf(res)
		if res.CacheHit {
			s.countHit(specs[i].Key())
		}
	}
	return resp
}

// countHit bumps the per-key run-cache hit series; obs.CounterVec
// folds keys past the cardinality cap into one overflow series and
// memoizes every key it has seen.
func (s *Server) countHit(key string) {
	s.hits.With(key).Inc()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.sched.Draining() {
		status = "draining"
	}
	s.out.JSON(w, http.StatusOK, map[string]any{
		"status":       status,
		"api_version":  api.Version,
		"queue_depth":  s.opt.QueueDepth,
		"inflight":     s.sched.Inflight(),
		"tenants":      s.sched.Tenants(),
		"cache_hits":   s.opt.Engine.Hits(),
		"cache_misses": s.opt.Engine.Misses(),
	})
}

func (s *Server) countWriteError(err error) {
	s.writeErrs.Inc()
	log.Printf("serve: response body write failed after headers (client sees a truncated 200): %v", err)
}

func (j *job) setStatus(st string) {
	j.mu.Lock()
	j.status = st
	j.mu.Unlock()
}

func (j *job) finish(resp *api.BatchResponse) {
	j.mu.Lock()
	j.status = resp.Status
	j.resp = resp
	j.mu.Unlock()
	close(j.done)
}

// Snapshot renders the job's current state as a poll answer: the full
// response once done, a status-only shell while queued or running.
func (j *job) Snapshot() *api.BatchResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.resp != nil {
		return j.resp
	}
	return &api.BatchResponse{APIVersion: api.Version, JobID: j.id, Status: j.status}
}
