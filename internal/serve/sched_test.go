// White-box tests for the tenant-aware admission scheduler: quota
// verdicts, deficit-round-robin dispatch order, parking, drain and
// delete-at-zero tenant state — all driven directly against the
// Scheduler so the properties are deterministic, no HTTP involved.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wayplace/internal/obs"
)

func TestSchedQuotaVerdicts(t *testing.T) {
	s := NewScheduler(4, 4, TenancyOptions{Slots: 2}, nil, nil, nil)
	ctx := context.Background()
	if v := s.Admit(ctx, "a", false, 1); v != AdmitOK {
		t.Fatalf("first admit: %v", v)
	}
	if v := s.Admit(ctx, "a", false, 1); v != AdmitOK {
		t.Fatalf("second admit: %v", v)
	}
	// Tenant "a" is at its quota while the pool still has room: that
	// is the per-tenant condition, not global backpressure.
	if v := s.Admit(ctx, "a", false, 1); v != AdmitOverQuota {
		t.Fatalf("over-quota admit: got %v, want AdmitOverQuota", v)
	}
	// A different tenant keeps admitting.
	if v := s.Admit(ctx, "b", false, 1); v != AdmitOK {
		t.Fatalf("other tenant: %v", v)
	}
	if v := s.Admit(ctx, "b", false, 1); v != AdmitOK {
		t.Fatalf("other tenant second: %v", v)
	}
	// Now the pool itself is full: with no AdmitWait, a third tenant
	// sees queue_full, not over_quota — it holds nothing.
	if v := s.Admit(ctx, "c", false, 1); v != AdmitQueueFull {
		t.Fatalf("full pool: got %v, want AdmitQueueFull", v)
	}
	s.Release("a", false)
	if v := s.Admit(ctx, "c", false, 1); v != AdmitOK {
		t.Fatalf("after release: %v", v)
	}

	// A quota spanning the whole pool is no quota: the lone tenant
	// that fills it sees the global answer, queue_full.
	s = NewScheduler(2, 2, TenancyOptions{Slots: 2}, nil, nil, nil)
	for i := 0; i < 2; i++ {
		if v := s.Admit(ctx, "x", false, 1); v != AdmitOK {
			t.Fatalf("vacuous quota refused admission %d: %v", i, v)
		}
	}
	if v := s.Admit(ctx, "x", false, 1); v != AdmitQueueFull {
		t.Fatalf("quota == pool: got %v, want the global AdmitQueueFull", v)
	}
}

// TestSchedForgetsIdleTenants: a tenant that holds nothing and has
// nothing parked is deleted at once on every admission path — a
// release, a refused first admission, and a parked admission that
// times out — so a flood of unique identities leaves no state behind.
func TestSchedForgetsIdleTenants(t *testing.T) {
	ctx := context.Background()
	forgotten := func(s *Scheduler, gauge *obs.Gauge, when string) {
		t.Helper()
		if got := s.Tenants(); got != 0 {
			t.Fatalf("%s: %d tenants tracked, want 0", when, got)
		}
		if got := gauge.Value(); got != 0 {
			t.Fatalf("%s: %s gauge = %v, want 0", when, MetricTenants, got)
		}
	}
	tracked := func(s *Scheduler, tenant string) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.tenants[tenant]
		return ok
	}

	gauge := obs.NewRegistry().Gauge(MetricTenants)
	s := NewScheduler(8, 8, TenancyOptions{Slots: 2}, gauge, nil, nil)
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if v := s.Admit(ctx, name, false, 1); v != AdmitOK {
			t.Fatalf("%s: verdict %v, want admitted", name, v)
		}
		s.Release(name, false)
	}
	forgotten(s, gauge, "500 tenants admitted and released")

	// A new tenant refused by a full pool leaves nothing behind.
	gauge = obs.NewRegistry().Gauge(MetricTenants)
	s = NewScheduler(1, 1, TenancyOptions{}, gauge, nil, nil)
	if v := s.Admit(ctx, "holder", false, 1); v != AdmitOK {
		t.Fatalf("holder: %v", v)
	}
	if v := s.Admit(ctx, "refused", false, 1); v != AdmitQueueFull {
		t.Fatalf("full pool: got %v, want AdmitQueueFull", v)
	}
	if tracked(s, "refused") {
		t.Fatal("a refused new tenant is still tracked")
	}
	s.Release("holder", false)
	forgotten(s, gauge, "refused new tenant")

	// Nor does a parked admission that times out.
	gauge = obs.NewRegistry().Gauge(MetricTenants)
	s = NewScheduler(1, 1, TenancyOptions{AdmitWait: 20 * time.Millisecond}, gauge, nil, nil)
	if v := s.Admit(ctx, "holder", false, 1); v != AdmitOK {
		t.Fatalf("holder: %v", v)
	}
	if v := s.Admit(ctx, "parked", false, 1); v != AdmitQueueFull {
		t.Fatalf("timed-out admit: got %v, want AdmitQueueFull", v)
	}
	if tracked(s, "parked") {
		t.Fatal("a timed-out parked tenant is still tracked")
	}
	s.Release("holder", false)
	forgotten(s, gauge, "parked admission timed out")
}

// The seed fills the pool; the test then repeatedly frees one slot
// and waits for the dispatcher to grant the next parked waiter,
// recording the grant order the DRR produced.
func TestSchedWeightedFairDispatch(t *testing.T) {
	const perTenant = 4
	s := NewScheduler(perTenant, perTenant, TenancyOptions{
		Slots:     perTenant, // room to park each tenant's full burst
		AdmitWait: 10 * time.Second,
		Weights:   map[string]int{"heavy": 4, "light": 1},
	}, nil, nil, nil)
	ctx := context.Background()
	for i := 0; i < perTenant; i++ {
		if v := s.Admit(ctx, "seed", false, 1); v != AdmitOK {
			t.Fatalf("seed admit: %v", v)
		}
	}

	granted := make(chan string, 16)
	const cost = 4 * quantum // > light's per-visit credit, so weight bites
	park := func(tenant string) {
		for i := 0; i < perTenant; i++ {
			go func() {
				if v := s.Admit(ctx, tenant, false, cost); v == AdmitOK {
					granted <- tenant
				} else {
					granted <- "FAILED:" + tenant
				}
			}()
			// Park strictly in order so the FIFO invariant is testable.
			waitParked(t, s, tenant, i+1)
		}
	}
	park("light")
	park("heavy")

	var order []string
	current := "seed"
	for i := 0; i < 2*perTenant; i++ {
		s.Release(current, false)
		select {
		case g := <-granted:
			if strings.HasPrefix(g, "FAILED:") {
				t.Fatalf("waiter failed: %s", g)
			}
			order = append(order, g)
			current = g
		case <-time.After(5 * time.Second):
			t.Fatalf("no grant after release %d; order so far %v", i, order)
		}
	}

	// Everyone was served eventually...
	counts := map[string]int{}
	for _, g := range order {
		counts[g]++
	}
	if counts["heavy"] != perTenant || counts["light"] != perTenant {
		t.Fatalf("grant counts %v, want %d each", counts, perTenant)
	}
	// ...but the weighted tenant dominated the contended prefix: with
	// weight 4 and cost 4*quantum it grants every visit, while weight
	// 1 banks credit for 3-4 rotations per grant.
	heavyEarly := 0
	for _, g := range order[:perTenant] {
		if g == "heavy" {
			heavyEarly++
		}
	}
	if heavyEarly < perTenant-1 {
		t.Fatalf("first %d grants %v: want >= %d for the weight-4 tenant", perTenant, order[:perTenant], perTenant-1)
	}
}

// waitParked polls until the tenant has n parked waiters.
func waitParked(t *testing.T, s *Scheduler, tenant string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		parked := 0
		if ts, ok := s.tenants[tenant]; ok {
			parked = len(ts.waiting)
		}
		s.mu.Unlock()
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q never reached %d parked waiters", tenant, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedAdmitWaitTimesOut(t *testing.T) {
	s := NewScheduler(1, 1, TenancyOptions{AdmitWait: 30 * time.Millisecond}, nil, nil, nil)
	ctx := context.Background()
	if v := s.Admit(ctx, "holder", false, 1); v != AdmitOK {
		t.Fatal("seed admit failed")
	}
	start := time.Now()
	if v := s.Admit(ctx, "waiter", false, 1); v != AdmitQueueFull {
		t.Fatalf("timed-out admit: got %v, want AdmitQueueFull", v)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("returned after %v — did not park for AdmitWait", waited)
	}
	// The timed-out waiter left no residue.
	s.mu.Lock()
	residue := s.waitingTotal + len(s.rotation)
	s.mu.Unlock()
	if residue != 0 {
		t.Fatalf("timed-out waiter left %d parked entries behind", residue)
	}
}

func TestSchedReleaseGrantsParkedWaiter(t *testing.T) {
	s := NewScheduler(1, 1, TenancyOptions{AdmitWait: 10 * time.Second}, nil, nil, nil)
	ctx := context.Background()
	if v := s.Admit(ctx, "holder", false, 1); v != AdmitOK {
		t.Fatal("seed admit failed")
	}
	done := make(chan Verdict, 1)
	go func() { done <- s.Admit(ctx, "waiter", false, 1) }()
	waitParked(t, s, "waiter", 1)
	s.Release("holder", false)
	select {
	case v := <-done:
		if v != AdmitOK {
			t.Fatalf("parked waiter: got %v, want AdmitOK", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter never granted after release")
	}
}

// The scheduler keeps the inflight gauge it is given equal to its
// granted slots: through direct grants, a parked waiter granted on a
// release, and the last release.
func TestSchedInflightGauge(t *testing.T) {
	gauge := obs.NewRegistry().Gauge(MetricInflight)
	s := NewScheduler(2, 2, TenancyOptions{AdmitWait: 10 * time.Second}, nil, gauge, nil)
	ctx := context.Background()
	want := func(when string, n float64) {
		t.Helper()
		if got := gauge.Value(); got != n || float64(s.Inflight()) != n {
			t.Fatalf("%s: gauge %v, Inflight %d; want %v", when, got, s.Inflight(), n)
		}
	}
	for _, tenant := range []string{"a", "b"} {
		if v := s.Admit(ctx, tenant, false, 1); v != AdmitOK {
			t.Fatalf("%s: %v", tenant, v)
		}
	}
	want("pool full", 2)
	done := make(chan Verdict, 1)
	go func() { done <- s.Admit(ctx, "waiter", false, 1) }()
	waitParked(t, s, "waiter", 1)
	want("waiter parked", 2)
	s.Release("a", false)
	if v := <-done; v != AdmitOK {
		t.Fatalf("parked waiter: %v", v)
	}
	want("waiter granted on release", 2)
	s.Release("b", false)
	s.Release("waiter", false)
	want("all released", 0)
}

func TestSchedDrainWakesWaiters(t *testing.T) {
	s := NewScheduler(1, 1, TenancyOptions{AdmitWait: 10 * time.Second}, nil, nil, nil)
	ctx := context.Background()
	if v := s.Admit(ctx, "holder", false, 1); v != AdmitOK {
		t.Fatal("seed admit failed")
	}
	done := make(chan Verdict, 1)
	go func() { done <- s.Admit(ctx, "waiter", false, 1) }()
	waitParked(t, s, "waiter", 1)
	s.SetDraining()
	select {
	case v := <-done:
		if v != AdmitQueueFull {
			t.Fatalf("drained waiter: got %v, want AdmitQueueFull", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not wake the parked waiter")
	}
	if v := s.Admit(ctx, "late", false, 1); v != AdmitQueueFull {
		t.Fatal("post-drain admit must refuse")
	}
}

// TestTenantFloodBoundedRegistry is the adversarial cardinality case:
// a flood of unique tenant ids must land on the overflow series past
// the cap — the registry stays bounded — and the scheduler's
// accounting map must be empty afterwards (no per-tenant leak across
// a long run).
func TestTenantFloodBoundedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s := newBareServer(t, reg)
	handler := s.Handler()
	// The cell is schema-valid; the bare server's provider fails it,
	// which is fine — admission, per-tenant accounting and metrics all
	// happen regardless, and no simulation keeps the flood fast.
	body := `{"requests":[{"workload":"w","icache":{"size_bytes":8192,"ways":8,"line_bytes":32},"scheme":"baseline"}]}`

	total := keyCardinalityCap + 200
	for i := 0; i < total; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body))
		req.Header.Set("X-WP-Tenant", fmt.Sprintf("flood-%05d", i))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("flood request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	series := 0
	for name := range reg.Dump().Counters {
		if strings.HasPrefix(name, MetricTenantBatches+"{") {
			series++
		}
	}
	if series != keyCardinalityCap+1 {
		t.Fatalf("registry holds %d per-tenant series, want cap+1 = %d", series, keyCardinalityCap+1)
	}
	of := s.tenantBatches.Overflow()
	if of == nil || of.Value() != uint64(total-keyCardinalityCap) {
		t.Fatalf("overflow series = %v, want %d", of.Value(), total-keyCardinalityCap)
	}

	// Quota state: every flood tenant released its slot, so none is
	// tracked any more.
	if got := s.sched.Tenants(); got != 0 {
		t.Fatalf("after the flood the scheduler still tracks %d tenants — map leak", got)
	}
	if got := reg.Dump().Gauges[MetricTenants]; got != 0 {
		t.Fatalf("%s gauge = %v after the flood, want 0", MetricTenants, got)
	}
}

// Sanity: a sync admission parked behind a quota-blocked tenant's
// waiters is still granted — the rotation never deadlocks on a
// quota-blocked head.
func TestSchedQuotaBlockedHeadDoesNotStallOthers(t *testing.T) {
	s := NewScheduler(3, 3, TenancyOptions{Slots: 2, AdmitWait: 10 * time.Second}, nil, nil, nil)
	ctx := context.Background()
	if v := s.Admit(ctx, "hog", false, 1); v != AdmitOK {
		t.Fatal("hog seed failed")
	}
	if v := s.Admit(ctx, "filler", false, 1); v != AdmitOK {
		t.Fatal("filler seed 1 failed")
	}
	if v := s.Admit(ctx, "filler2", false, 1); v != AdmitOK {
		t.Fatal("filler seed 2 failed")
	}
	// The hog parks two waiters while still under its quota (held 1 of
	// 2); the first grant will take it *to* quota, leaving the second
	// parked behind a quota-blocked head.
	hogDone := make(chan Verdict, 2)
	go func() { hogDone <- s.Admit(ctx, "hog", false, 1) }()
	waitParked(t, s, "hog", 1)
	go func() { hogDone <- s.Admit(ctx, "hog", false, 1) }()
	waitParked(t, s, "hog", 2)
	// A polite tenant parks behind them.
	politeDone := make(chan Verdict, 1)
	go func() { politeDone <- s.Admit(ctx, "polite", false, 1) }()
	waitParked(t, s, "polite", 1)
	// First free slot: the hog's first waiter is granted, reaching its
	// quota of 2.
	s.Release("filler", false)
	select {
	case v := <-hogDone:
		if v != AdmitOK {
			t.Fatalf("hog waiter 1: got %v, want AdmitOK", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hog waiter 1 never granted")
	}
	// Second free slot: the hog's remaining waiter is quota-blocked
	// and must not stall the rotation — the polite tenant is granted.
	s.Release("filler2", false)
	select {
	case v := <-politeDone:
		if v != AdmitOK {
			t.Fatalf("polite waiter: got %v, want AdmitOK", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("polite waiter starved behind a quota-blocked head")
	}
	// The hog's parked waiter is granted once the hog's own slot frees.
	s.Release("hog", false)
	select {
	case v := <-hogDone:
		if v != AdmitOK {
			t.Fatalf("hog waiter 2: got %v, want AdmitOK", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hog waiter 2 never granted after its own release")
	}
}
