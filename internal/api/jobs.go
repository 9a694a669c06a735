package api

import (
	"sync"
	"time"
)

// Job is an async batch as a JobTable holds it: a pointer type whose
// Snapshot renders the current poll answer.
type Job interface {
	comparable
	Snapshot() *BatchResponse
}

// JobTable is the one async-job table behind the deterministic 202
// ids of wpserved and wpcoordd. Finished jobs are evicted after a TTL
// so a long-lived daemon does not keep one BatchResponse per distinct
// batch forever (polls answer 404 afterwards; resubmitting recomputes
// against the warm cache). Eviction timers are tracked so Stop can end
// them at shutdown, and each timer deletes only the job it was armed
// for: a stale timer firing after its job was displaced cannot orphan
// the replacement's id.
type JobTable[J Job] struct {
	ttl  time.Duration
	jobs sync.Map // id -> J

	mu      sync.Mutex
	timers  map[string]eviction[J]
	stopped bool // Stop ran; no new timers
}

type eviction[J Job] struct {
	job   J
	timer *time.Timer
}

// NewJobTable returns a table evicting finished jobs ttl after they
// finish; a negative ttl keeps them forever.
func NewJobTable[J Job](ttl time.Duration) *JobTable[J] {
	return &JobTable[J]{ttl: ttl, timers: make(map[string]eviction[J])}
}

// Load returns the job published under id.
func (t *JobTable[J]) Load(id string) (J, bool) {
	v, ok := t.jobs.Load(id)
	if !ok {
		var zero J
		return zero, false
	}
	return v.(J), true
}

// Store publishes j under id unconditionally (boot replay).
func (t *JobTable[J]) Store(id string, j J) { t.jobs.Store(id, j) }

// LoadOrStore publishes j under id unless a job is already there, in
// which case it returns that one and loaded=true.
func (t *JobTable[J]) LoadOrStore(id string, j J) (J, bool) {
	v, loaded := t.jobs.LoadOrStore(id, j)
	return v.(J), loaded
}

// Attach returns the snapshot of the live job under id for an
// identical resubmission to report. A failed job is a tombstone, not a
// result worth serving — its failure may have been transient — so it
// is displaced (removed, its timer cancelled) and Attach reports no
// job: the resubmission is the client's retry.
func (t *JobTable[J]) Attach(id string) (*BatchResponse, bool) {
	cur, ok := t.Load(id)
	if !ok {
		return nil, false
	}
	snap := cur.Snapshot()
	if snap.Status != StatusFailed {
		return snap, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs.CompareAndDelete(id, cur)
	if e, ok := t.timers[id]; ok && e.job == cur {
		e.timer.Stop()
		delete(t.timers, id)
	}
	return nil, false
}

// Evict arms the TTL eviction of finished job j.
func (t *JobTable[J]) Evict(id string, j J) { t.EvictAfter(id, j, t.ttl) }

// EvictAfter arms (or re-arms, replacing the previous timer) the
// eviction of j after d. A table with a negative TTL never evicts,
// and a stopped table arms nothing.
func (t *JobTable[J]) EvictAfter(id string, j J, d time.Duration) {
	if t.ttl < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	if old, ok := t.timers[id]; ok {
		old.timer.Stop()
	}
	t.timers[id] = eviction[J]{job: j, timer: time.AfterFunc(d, func() { t.evict(id, j) })}
}

// evict is the timer callback: it deletes j, and its own timer entry,
// only if they are still the ones under id.
func (t *JobTable[J]) evict(id string, j J) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs.CompareAndDelete(id, j)
	if e, ok := t.timers[id]; ok && e.job == j {
		delete(t.timers, id)
	}
}

// Armed reports how many eviction timers are pending.
func (t *JobTable[J]) Armed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.timers)
}

// Stop stops every pending eviction timer and arms no new ones; part
// of a daemon's shutdown, so no timer fires into a dead server.
func (t *JobTable[J]) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	for id, e := range t.timers {
		e.timer.Stop()
		delete(t.timers, id)
	}
}
