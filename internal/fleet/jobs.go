package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"wayplace/internal/api"
)

// maxSubPollFailures is how many consecutive failed polls of one
// backend sub-job are tolerated (network blips, a backend mid-restart
// replaying its journal) before the sub-job's cells are declared
// failed.
const maxSubPollFailures = 3

// fleetSub is one backend's slice of an async fleet job.
type fleetSub struct {
	sub       api.SubBatch
	backend   int    // resolved backend index (post-failover)
	jobID     string // the backend's own job id for this sub-batch
	resp      *api.BatchResponse
	err       error
	pollFails int
}

func (fs *fleetSub) final() bool { return fs.resp != nil || fs.err != nil }

// fleetJob is a scattered async batch: the coordinator holds only the
// routing table (which backend runs which original indices under which
// sub job id); the work and its results live on the backends until a
// poll gathers them.
type fleetJob struct {
	id   string
	reqs []api.RunRequest

	mu    sync.Mutex
	subs  []*fleetSub
	final *api.BatchResponse
}

// startAsync scatters the batch in async mode and answers 202 with the
// coordinator's own deterministic job id (api.BatchKey — the id a
// single wpserved would assign the identical batch). Duplicate
// submissions attach to the existing job; their backend-side
// sub-submissions deduplicate the same way, since sub job ids are
// BatchKeys too.
func (c *Coordinator) startAsync(w http.ResponseWriter, ctx context.Context, tenant api.Tenant, echo string, breq *api.BatchRequest, subs []api.SubBatch, streams []string) {
	id := api.BatchKey(breq.Requests)
	// A live identical job is reported as-is; a failed one is displaced
	// by Attach and rescattered below. The backends apply the same rule
	// to its failed sub-jobs, so the whole path heals on resubmission.
	if snap, ok := c.jobs.Attach(id); ok {
		c.out.Batch(w, http.StatusAccepted, snap.WithTenant(echo))
		return
	}
	// Detached from the submitter: an accepted async job survives its
	// client hanging up, exactly as on a single wpserved. Scattering
	// under the request context would publish a poisoned
	// permanently-failed job under this batch's deterministic id the
	// moment a submitter disconnects mid-scatter — every later
	// submission of the same batch would then attach to the corpse.
	outs := c.scatter(context.WithoutCancel(ctx), tenant, subs, streams, true)
	if c.propagateBusy(w, outs) {
		return
	}
	j := &fleetJob{id: id, reqs: breq.Requests}
	for si, o := range outs {
		fs := &fleetSub{sub: subs[si], backend: o.backend, err: o.err}
		if o.resp != nil {
			fs.jobID = o.resp.JobID
			if done(o.resp.Status) {
				// The backend answered the whole sub-batch from cache
				// before even queueing: gather it now.
				fs.resp = o.resp
				c.countCells(c.backends[o.backend], o.resp)
			}
		}
		j.subs = append(j.subs, fs)
	}
	if cur, loaded := c.jobs.LoadOrStore(id, j); loaded {
		// A concurrent identical submission won the publish; the
		// backends deduplicated our sub-submissions against its.
		c.out.Batch(w, http.StatusAccepted, cur.Snapshot().WithTenant(echo))
		return
	}
	c.out.Batch(w, http.StatusAccepted, j.Snapshot().WithTenant(echo))
}

func done(status string) bool {
	return status == api.StatusDone || status == api.StatusFailed
}

// handleJob answers GET /v1/runs/{id}. The coordinator polls lazily:
// each client poll fans a poll out to the backends still holding
// unfinished sub-jobs, and the first poll that finds everything done
// merges and caches the batch answer.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := c.jobs.Load(id)
	if !ok {
		c.out.JSON(w, http.StatusNotFound, api.ErrorResponse{
			Error: fmt.Sprintf("unknown job %q", id), Code: api.CodeJobUnknown,
		})
		return
	}
	if c.pollJob(r.Context(), j) {
		c.jobs.Evict(id, j)
	}
	// Like a single wpserved, poll answers echo the poller's own
	// explicit tenant — jobs are shared across identical submissions.
	_, echo, _ := api.RequestTenant(r)
	c.out.Batch(w, http.StatusOK, j.Snapshot().WithTenant(echo))
}

// pollJob advances one fleet job: polls every non-final sub-job's
// backend, gathers finished answers, and merges once all subs are
// final. Returns true the one time the job transitions to final (the
// caller arms the eviction timer). Concurrent client polls serialise
// on the job's lock — the backends see one poll stream per job.
func (c *Coordinator) pollJob(ctx context.Context, j *fleetJob) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil {
		return false
	}
	for _, fs := range j.subs {
		if fs.final() {
			continue
		}
		b := c.backends[fs.backend]
		resp, err := c.send(ctx, b, http.MethodGet, "/v1/runs/"+fs.jobID, "", nil)
		switch {
		case notFound(err):
			// The backend no longer knows the job (evicted, or it lost
			// unjournaled state in a crash). The cells cannot be
			// recovered from here — the client resubmits the batch.
			fs.err = fmt.Errorf("fleet: backend %s forgot job %s; resubmit the batch", b.name, fs.jobID)
		case err != nil:
			if ctx.Err() != nil {
				// The polling client hung up — that says nothing about
				// the backend's health, so it spends no failure budget.
				return false
			}
			if fs.pollFails++; fs.pollFails >= maxSubPollFailures {
				fs.err = fmt.Errorf("fleet: backend %s unreachable for %d polls: %w", b.name, fs.pollFails, err)
			}
		case done(resp.Status):
			fs.pollFails = 0
			fs.resp = resp
			c.countCells(b, resp)
		default:
			fs.pollFails = 0 // still queued or running: healthy
		}
	}
	for _, fs := range j.subs {
		if !fs.final() {
			return false
		}
	}
	outs := make([]subOutcome, len(j.subs))
	subs := make([]api.SubBatch, len(j.subs))
	for i, fs := range j.subs {
		outs[i] = subOutcome{resp: fs.resp, err: fs.err}
		subs[i] = fs.sub
	}
	merged := mergeOutcomes(j.reqs, subs, outs)
	merged.JobID = j.id
	j.final = merged
	return true
}

// Snapshot renders the job's poll answer: the merged response once
// final, a status-only shell while sub-jobs are still running.
func (j *fleetJob) Snapshot() *api.BatchResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil {
		return j.final
	}
	return &api.BatchResponse{APIVersion: api.Version, JobID: j.id, Status: api.StatusRunning}
}

// handleHealthz aggregates fleet health: the coordinator's own state,
// the ring shape, and a live probe of every backend's /healthz
// (concurrent, bounded by healthTimeout). Overall status is "ok" only
// when every backend answered.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type backendHealth struct {
		Name   string         `json:"name"`
		OK     bool           `json:"ok"`
		Error  string         `json:"error,omitempty"`
		Detail map[string]any `json:"detail,omitempty"`
	}
	healths := make([]backendHealth, len(c.backends))
	var wg sync.WaitGroup
	for i, b := range c.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), healthTimeout)
			defer cancel()
			h, err := b.client.Health(ctx)
			bh := backendHealth{Name: b.name, OK: err == nil, Detail: h}
			if err != nil {
				bh.Error = err.Error()
			}
			healths[i] = bh
		}(i, b)
	}
	wg.Wait()

	status := "ok"
	if c.sched.Draining() {
		status = "draining"
	}
	healthy := 0
	for _, bh := range healths {
		if bh.OK {
			healthy++
		}
	}
	if healthy < len(healths) && status == "ok" {
		status = "degraded"
	}
	c.out.JSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"api_version": api.Version,
		"role":        "coordinator",
		"queue_depth": c.opt.QueueDepth,
		"inflight":    c.sched.Inflight(),
		"tenants":     c.sched.Tenants(),
		"ring": map[string]any{
			"backends":         c.ring.Backends(),
			"vnodes":           c.ring.VNodes(),
			"failover":         c.opt.Failover,
			"healthy_backends": healthy,
		},
		"backends": healths,
	})
}
