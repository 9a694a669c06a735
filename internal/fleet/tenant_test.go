package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/fleet"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
)

// okBackend is a fake wpserved that records the X-WP-Tenant header of
// every sub-request and answers each cell with synthetic done stats.
// gate, when non-nil, parks every request until the channel yields.
func okBackend(t *testing.T, tenants *[]string, mu *sync.Mutex, gate chan struct{}) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		*tenants = append(*tenants, r.Header.Get(api.TenantHeader))
		mu.Unlock()
		if gate != nil {
			<-gate
		}
		var breq api.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&breq); err != nil {
			t.Errorf("backend decode: %v", err)
		}
		resp := api.BatchResponse{APIVersion: api.Version, Status: api.StatusDone}
		for _, req := range breq.Requests {
			resp.Results = append(resp.Results, api.RunResult{
				Request: req, Key: req.Key(), Stats: &sim.RunStats{Instrs: 1},
			})
		}
		json.NewEncoder(w).Encode(resp)
	}))
}

// TestCoordinatorForwardsTenant: the scattered sub-requests carry the
// client's explicit tenant; a tenant-less client is forwarded under
// its derived remote-address identity, and the response echoes only
// the explicit form.
func TestCoordinatorForwardsTenant(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	back := okBackend(t, &seen, &mu, nil)
	defer back.Close()
	_, srv := startCoordinator(t, nil, fleet.Options{Backends: []string{back.URL}})

	client := serve.NewClient(srv.URL)
	client.Tenant = "team-a"
	resp, err := client.Run(context.Background(), testPool(1)[:2])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "team-a" {
		t.Errorf("coordinator echo = %q, want team-a", resp.Tenant)
	}

	tenantless := serve.NewClient(srv.URL)
	resp, err = tenantless.Run(context.Background(), testPool(1)[:2])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "" {
		t.Errorf("tenant-less echo = %q, want empty", resp.Tenant)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 2 {
		t.Fatalf("backend saw %d sub-requests, want >= 2", len(seen))
	}
	if seen[0] != "team-a" {
		t.Errorf("first sub-request forwarded tenant %q, want team-a", seen[0])
	}
	// The derived identity is the client's host — loopback here — and
	// it IS forwarded, so backends can fair-share tenant-less clients.
	if last := seen[len(seen)-1]; last != "127.0.0.1" && last != "::1" {
		t.Errorf("tenant-less sub-request forwarded %q, want the derived loopback address", last)
	}
}

// TestCoordinatorTenantSlots: one tenant saturating its own cap gets
// 429 over_quota while another tenant is admitted; afterwards the
// per-tenant ledger is empty (no unbounded map growth from unique
// tenants).
func TestCoordinatorTenantSlots(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	gate := make(chan struct{})
	back := okBackend(t, &seen, &mu, gate)
	defer back.Close()
	reg := obs.NewRegistry()
	_, srv := startCoordinator(t, nil, fleet.Options{
		Backends:    []string{back.URL},
		Registry:    reg,
		QueueDepth:  4,
		TenantSlots: 1,
	})

	post := func(tenant string, reqs []api.RunRequest) (*http.Response, api.ErrorResponse) {
		body, _ := json.Marshal(api.BatchRequest{APIVersion: api.Version, Requests: reqs})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/runs", bytes.NewReader(body))
		req.Header.Set(api.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eresp api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&eresp)
		resp.Body.Close()
		return resp, eresp
	}

	reqs := testPool(1)[:1]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post("hog", reqs) // parks on the gate inside the backend
	}()
	// Wait for the hog's batch to reach the backend.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hog batch never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}

	resp, eresp := post("hog", reqs)
	if resp.StatusCode != http.StatusTooManyRequests || eresp.Code != api.CodeOverQuota {
		t.Fatalf("hog second batch: status %d code %q, want 429 over_quota", resp.StatusCode, eresp.Code)
	}
	if !eresp.Retryable {
		t.Error("over_quota not marked retryable")
	}
	if got := reg.Counter(fleet.MetricOverQuota).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", fleet.MetricOverQuota, got)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if r, e := post("polite", reqs); r.StatusCode != http.StatusOK {
			t.Errorf("polite tenant: status %d (%+v), want 200 despite the hog", r.StatusCode, e)
		}
	}()
	close(gate) // release the hog and the polite batch
	wg.Wait()
	<-done
}

// TestCoordinatorPropagatesCode: when every owner keeps answering a
// coded 429 past the retry budget, the coordinator's own 429 carries
// the backend's code through to the client.
func TestCoordinatorPropagatesCode(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{
			Error: "tenant over quota", Code: api.CodeOverQuota, Retryable: true, RetryAfterSeconds: 1,
		})
	}))
	defer busy.Close()
	_, srv := startCoordinator(t, nil, fleet.Options{
		Backends:       []string{busy.URL},
		BackendRetries: 1,
	})

	body, _ := json.Marshal(api.BatchRequest{APIVersion: api.Version, Requests: testPool(1)[:1]})
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var eresp api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Code != api.CodeOverQuota || !eresp.Retryable {
		t.Fatalf("propagated code=%q retryable=%v, want over_quota/true", eresp.Code, eresp.Retryable)
	}
}
