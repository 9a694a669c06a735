package serve

import (
	"context"
	"sync"
	"time"

	"wayplace/internal/obs"
)

// TenancyOptions configures per-tenant admission: concurrency quotas,
// parking and the weighted-fair (deficit round-robin) dispatch order.
// The zero value reproduces the pre-tenancy server exactly — every
// tenant may fill the whole queue and a full pool answers 429
// immediately — so tenant isolation is strictly opt-in.
type TenancyOptions struct {
	// Slots caps how many queue slots one tenant may hold at once
	// (sync and async combined), and how many of its admissions may
	// park waiting for one. A tenant at its cap gets 429 over_quota —
	// a per-tenant condition — while other tenants keep admitting.
	// 0 means QueueDepth: no per-tenant cap.
	Slots int
	// AdmitWait is how long an admission may park in its tenant
	// sub-queue for the weighted-fair dispatcher before giving up with
	// queue_full. 0 disables parking: a full pool answers 429
	// immediately, exactly the pre-tenancy behaviour.
	AdmitWait time.Duration
	// Weights assigns per-tenant scheduling weights; tenants absent
	// from the map (and every tenant when nil) weigh 1. A tenant with
	// weight w accumulates w*quantum cells of credit each time the
	// dispatcher visits it, and admitting a batch spends credit equal
	// to its cell count — so over time tenants' admitted cell
	// throughput converges to their weight ratio. Weights shape the
	// dequeue share, not the quota.
	Weights map[string]int
	// RetryAfter is the backoff hint sent with over_quota answers —
	// per-tenant pressure typically clears faster than a full global
	// queue, so it may be shorter than Options.RetryAfter. 0 inherits
	// Options.RetryAfter.
	RetryAfter time.Duration
}

// quantum is the deficit-round-robin refill in cells per unit of
// weight per rotation.
const quantum = 8

// Verdict is the outcome of one admission attempt.
type Verdict int

const (
	// AdmitOK: a slot was granted; the caller must Release it.
	AdmitOK Verdict = iota
	// AdmitOverQuota: this tenant is at its own quota while the pool
	// may still have room — answer 429 over_quota.
	AdmitOverQuota
	// AdmitQueueFull: a global condition (pool exhausted, async pool
	// exhausted, sub-queue full, draining, or AdmitWait expired) —
	// answer 429 queue_full.
	AdmitQueueFull
)

// waiter is one parked admission awaiting weighted-fair dispatch.
type waiter struct {
	cost  int // DRR cost: the batch's cell count
	async bool
	// granted is written under Scheduler.mu before ready is closed;
	// the channel close publishes it to the parked goroutine.
	granted bool
	ready   chan struct{}
}

// tenantState is one tenant's accounting: held slots, parked waiters
// and the DRR deficit. It exists only while the tenant holds a slot
// or has an admission parked. All fields are guarded by Scheduler.mu.
type tenantState struct {
	name       string
	weight     int
	deficit    int // DRR credit, in cells
	held       int // queue slots currently held
	waiting    []*waiter
	inRotation bool
}

// Scheduler is the tenant-aware admission scheduler of both daemons:
// a single slot pool with per-tenant quotas in front of it and a
// deficit-round-robin dispatcher over per-tenant sub-queues behind it.
// With the zero TenancyOptions it degenerates to a plain bounded
// queue: one global capacity check, immediate 429 when full. A tenant
// is forgotten the moment it holds nothing and has nothing parked, so
// the tenant map never outgrows the work in flight.
type Scheduler struct {
	capacity  int // total queue slots
	asyncCap  int // global async reservation
	slots     int // per-tenant slot quota (normalized)
	admitWait time.Duration
	weights   map[string]int
	tenantsG  *obs.Gauge // live tenant count (may be nil)
	inflightG *obs.Gauge // granted slots (may be nil)
	// grants, when set, is added to under mu for every granted slot
	// and done on its Release, so a drain that has set draining waits
	// for every grant made before it.
	grants *sync.WaitGroup

	mu           sync.Mutex
	draining     bool
	running      int // slots currently granted
	asyncHeld    int // the async subset of running
	waitingTotal int
	tenants      map[string]*tenantState
	rotation     []*tenantState // tenants with parked waiters, in DRR order
	cursor       int
}

// NewScheduler returns an empty scheduler over capacity slots, of
// which async admissions may hold at most asyncCap. The gauges, when
// non-nil, track the number of tenants holding or awaiting a slot and
// the number of slots granted and not yet released; grants, when
// non-nil, counts those granted slots too.
func NewScheduler(capacity, asyncCap int, cfg TenancyOptions, tenants, inflight *obs.Gauge, grants *sync.WaitGroup) *Scheduler {
	s := &Scheduler{
		capacity:  capacity,
		asyncCap:  asyncCap,
		slots:     cfg.Slots,
		admitWait: cfg.AdmitWait,
		weights:   cfg.Weights,
		tenantsG:  tenants,
		inflightG: inflight,
		grants:    grants,
		tenants:   make(map[string]*tenantState),
	}
	if s.slots <= 0 || s.slots > capacity {
		s.slots = capacity
	}
	return s
}

// Admit claims one slot for the tenant, parking up to AdmitWait when
// the pool is contended. cost is the batch's cell count (the DRR
// currency). The verdict distinguishes the per-tenant condition
// (over_quota) from global ones (queue_full) so the caller can answer
// with the right error code and backoff hint.
func (s *Scheduler) Admit(ctx context.Context, tenant string, async bool, cost int) Verdict {
	if cost < 1 {
		cost = 1
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return AdmitQueueFull
	}
	t := s.tenantLocked(tenant)
	if v, settled := s.admitLocked(t, async); settled {
		s.forgetIfIdleLocked(t)
		s.mu.Unlock()
		return v
	}
	w := &waiter{cost: cost, async: async, ready: make(chan struct{})}
	t.waiting = append(t.waiting, w)
	s.waitingTotal++
	if !t.inRotation {
		t.inRotation = true
		s.rotation = append(s.rotation, t)
	}
	// Dispatch before sleeping: the pool may have room that only a
	// quota-blocked head was failing to take.
	s.dispatchLocked()
	if w.granted {
		s.mu.Unlock()
		return AdmitOK
	}
	s.mu.Unlock()

	timer := time.NewTimer(s.admitWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		if w.granted {
			return AdmitOK
		}
		return AdmitQueueFull // woken by drain
	case <-timer.C:
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.granted {
		// Lost the race against a concurrent grant: the slot is ours
		// after all, and the caller will release it normally.
		return AdmitOK
	}
	s.removeWaiterLocked(t, w)
	s.forgetIfIdleLocked(t)
	return AdmitQueueFull
}

// admitLocked answers an admission that needs no parking: a grant, or
// a refusal. settled is false when the admission must park.
func (s *Scheduler) admitLocked(t *tenantState, async bool) (v Verdict, settled bool) {
	// Quota checks come first: a tenant at its own cap is over_quota
	// even when the pool has room — that is the isolation contract.
	// A quota spanning the whole pool is no quota (the slots < capacity
	// guard): with tenancy unconfigured, a lone tenant saturating the
	// pool must keep seeing the pre-tenancy global answer, queue_full.
	switch {
	case t.held >= s.slots && s.slots < s.capacity:
		return AdmitOverQuota, true
	case async && s.asyncHeld >= s.asyncCap:
		return AdmitQueueFull, true
	case s.running < s.capacity && s.waitingTotal == 0:
		// Fast path: free slot and nobody parked ahead of us.
		s.grantLocked(t, async)
		return AdmitOK, true
	case s.admitWait <= 0 || len(t.waiting) >= s.slots:
		return AdmitQueueFull, true
	}
	return 0, false
}

// Release returns one slot and runs the dispatcher, so parked waiters
// are granted in weighted-fair order the moment capacity frees.
func (s *Scheduler) Release(tenant string, async bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenant]; ok {
		t.held--
		s.forgetIfIdleLocked(t)
	}
	s.running--
	if async {
		s.asyncHeld--
	}
	s.inflightG.Set(float64(s.running))
	s.dispatchLocked()
	// Done after any grant the dispatch made, so the count never
	// touches zero while a slot is being handed on.
	if s.grants != nil {
		s.grants.Done()
	}
}

func (s *Scheduler) grantLocked(t *tenantState, async bool) {
	t.held++
	if async {
		s.asyncHeld++
	}
	s.running++
	s.inflightG.Set(float64(s.running))
	if s.grants != nil {
		s.grants.Add(1)
	}
}

// dispatchLocked is the deficit-round-robin dequeue: visit tenants
// with parked waiters in rotation order, topping each one's deficit
// up by weight*quantum when its head is short of credit, and grant
// while credit, quota and pool capacity allow. Invariants: (1) a
// tenant's waiters are granted FIFO; (2) across rotations, granted
// cell volume converges to the tenants' weight ratio; (3) a
// quota-blocked tenant never stalls the rotation — its waiters simply
// stay parked while others are served.
func (s *Scheduler) dispatchLocked() {
	for s.running < s.capacity && len(s.rotation) > 0 {
		progress := false    // granted someone this cycle
		costBlocked := false // some head needs only more credit
		for visits := len(s.rotation); visits > 0 && s.running < s.capacity && len(s.rotation) > 0; visits-- {
			if s.cursor >= len(s.rotation) {
				s.cursor = 0
			}
			t := s.rotation[s.cursor]
			if t.deficit < t.waiting[0].cost {
				t.deficit += t.weight * quantum
			}
			for len(t.waiting) > 0 && s.running < s.capacity {
				w := t.waiting[0]
				if t.held >= s.slots || (w.async && s.asyncHeld >= s.asyncCap) {
					break // quota-blocked: credit cannot help
				}
				if w.cost > t.deficit {
					costBlocked = true
					break
				}
				t.waiting = t.waiting[1:]
				s.waitingTotal--
				t.deficit -= w.cost
				s.grantLocked(t, w.async)
				w.granted = true
				close(w.ready)
				progress = true
			}
			if len(t.waiting) == 0 {
				s.leaveRotationLocked(t)
			} else {
				s.cursor++
			}
		}
		if !progress && !costBlocked {
			// Every parked head is quota-blocked; a future release
			// re-runs the dispatcher.
			return
		}
	}
}

// leaveRotationLocked drops a tenant with an empty sub-queue from the
// DRR rotation; its deficit resets so an idle tenant cannot bank
// credit against the future.
func (s *Scheduler) leaveRotationLocked(t *tenantState) {
	for i, cand := range s.rotation {
		if cand == t {
			s.rotation = append(s.rotation[:i], s.rotation[i+1:]...)
			if s.cursor > i {
				s.cursor--
			}
			break
		}
	}
	t.inRotation = false
	t.deficit = 0
}

// removeWaiterLocked unparks one timed-out (or cancelled) waiter.
func (s *Scheduler) removeWaiterLocked(t *tenantState, w *waiter) {
	for i, cand := range t.waiting {
		if cand == w {
			t.waiting = append(t.waiting[:i], t.waiting[i+1:]...)
			s.waitingTotal--
			break
		}
	}
	if len(t.waiting) == 0 && t.inRotation {
		s.leaveRotationLocked(t)
	}
}

// tenantLocked gets or creates one tenant's accounting state.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		weight := 1
		if w, ok := s.weights[name]; ok && w > 0 {
			weight = w
		}
		t = &tenantState{name: name, weight: weight}
		s.tenants[name] = t
		s.tenantsG.Set(float64(len(s.tenants)))
	}
	return t
}

// forgetIfIdleLocked deletes a tenant that holds nothing and has
// nothing parked: its state is then that of a tenant never seen, so
// keeping it would only grow the map by one entry per identity.
func (s *Scheduler) forgetIfIdleLocked(t *tenantState) {
	if t.held == 0 && len(t.waiting) == 0 {
		delete(s.tenants, t.name)
		s.tenantsG.Set(float64(len(s.tenants)))
	}
}

// SetDraining refuses all future admissions and wakes every parked
// waiter with queue_full, so a drain never waits out AdmitWait.
func (s *Scheduler) SetDraining() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for _, t := range s.tenants {
		for _, w := range t.waiting {
			close(w.ready) // granted stays false: the waiter reads queue_full
		}
		t.waiting = nil
		t.inRotation = false
		t.deficit = 0
		s.forgetIfIdleLocked(t)
	}
	s.rotation = nil
	s.waitingTotal = 0
	s.cursor = 0
}

// Draining reports whether SetDraining has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Inflight reports granted slots, for healthz.
func (s *Scheduler) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Tenants reports the tenants holding or awaiting a slot, for healthz
// and leak tests.
func (s *Scheduler) Tenants() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}
