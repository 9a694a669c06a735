// Black-box tests for the redesigned error/identity wire schema:
// every emitted machine-readable code, the tenant echo rules, and
// per-tenant quota isolation — all over real HTTP.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/fleet"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/store"
)

// postRaw posts a body with optional tenant header and returns the
// response plus decoded error body (zero when the answer was not an
// error).
func postRaw(t *testing.T, url, tenant, body string) (*http.Response, api.ErrorResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(api.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var eresp api.ErrorResponse
	json.Unmarshal(data, &eresp)
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, eresp
}

// TestEmittedErrorCodes is the table over every code the server can
// emit on the request path: status, code, retryable flag and whether
// a Retry-After hint accompanies it. A coordinator in front of the
// server must answer every case identically (its subtests carry a
// "coordinator" prefix).
func TestEmittedErrorCodes(t *testing.T) {
	env := newEnv(t, func(o *serve.Options) { o.MaxBatchCells = 3 })
	coord, err := fleet.New(fleet.Options{Backends: []string{env.http.URL}, MaxBatchCells: 3})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	daemons := []struct{ prefix, url string }{{"", env.http.URL}, {"coordinator ", front.URL}}
	oversized, _ := json.Marshal(api.BatchRequest{Requests: smallBatch()}) // 4 cells > 3

	cases := []struct {
		name       string
		tenant     string
		body       string
		wantStatus int
		wantCode   string
		wantRetry  bool
		wantHint   bool // Retry-After header present
	}{
		{"malformed JSON", "", "{not json", http.StatusBadRequest, api.CodeInvalidRequest, false, false},
		{"unsupported version", "", `{"api_version":"v9","requests":[{"workload":"tiny1"}]}`,
			http.StatusBadRequest, api.CodeUnsupportedVersion, false, false},
		{"empty batch", "", `{"requests":[]}`, http.StatusBadRequest, api.CodeInvalidRequest, false, false},
		{"invalid cell", "", `{"requests":[{"workload":"","scheme":"warp","icache":{"size_bytes":8192,"ways":8,"line_bytes":32}}]}`,
			http.StatusBadRequest, api.CodeInvalidRequest, false, false},
		{"invalid tenant header", "bad tenant!", `{"requests":[]}`,
			http.StatusBadRequest, api.CodeInvalidRequest, false, false},
		{"batch too large", "", string(oversized),
			http.StatusTooManyRequests, api.CodeBatchTooLarge, false, false},
	}
	for _, d := range daemons {
		for _, c := range cases {
			t.Run(d.prefix+c.name, func(t *testing.T) {
				resp, eresp := postRaw(t, d.url, c.tenant, c.body)
				if resp.StatusCode != c.wantStatus {
					t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.wantStatus, resp.Status)
				}
				if eresp.Code != c.wantCode {
					t.Errorf("code %q, want %q", eresp.Code, c.wantCode)
				}
				if eresp.Retryable != c.wantRetry {
					t.Errorf("retryable %v, want %v", eresp.Retryable, c.wantRetry)
				}
				if got := resp.Header.Get("Retry-After") != ""; got != c.wantHint {
					t.Errorf("Retry-After header present=%v, want %v", got, c.wantHint)
				}
			})
		}
	}
}

// TestQueueFullCode: the classic saturated-pool 429 now carries
// code=queue_full and retryable=true alongside the Retry-After hint.
func TestQueueFullCode(t *testing.T) {
	env := newEnv(t, func(o *serve.Options) { o.QueueDepth = 1 })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(api.BatchRequest{Requests: []api.RunRequest{
			{Workload: "block:tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
		}})
		http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	}()
	waitInflight(t, env, 1)
	defer func() { env.gate <- struct{}{}; wg.Wait() }()

	body, _ := json.Marshal(api.BatchRequest{Requests: smallBatch()})
	resp, eresp := postRaw(t, env.http.URL, "", string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if eresp.Code != api.CodeQueueFull || !eresp.Retryable {
		t.Fatalf("got code=%q retryable=%v, want queue_full/true", eresp.Code, eresp.Retryable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue_full without Retry-After header")
	}
}

// TestOverQuotaIsolation: a tenant at its own slot quota gets 429
// over_quota while another tenant keeps being served — the per-tenant
// vs global asymmetry the codes exist to express.
func TestOverQuotaIsolation(t *testing.T) {
	env := newEnv(t, func(o *serve.Options) {
		o.QueueDepth = 2
		o.Tenancy = serve.TenancyOptions{Slots: 1}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(api.BatchRequest{Requests: []api.RunRequest{
			{Workload: "block:tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
		}})
		req, _ := http.NewRequest(http.MethodPost, env.http.URL+"/v1/runs", bytes.NewReader(body))
		req.Header.Set(api.TenantHeader, "hog")
		http.DefaultClient.Do(req)
	}()
	waitInflight(t, env, 1)
	defer func() { env.gate <- struct{}{}; wg.Wait() }()

	// The hog's second request trips its own quota.
	body, _ := json.Marshal(api.BatchRequest{Requests: smallBatch()})
	resp, eresp := postRaw(t, env.http.URL, "hog", string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hog second request: status %d, want 429", resp.StatusCode)
	}
	if eresp.Code != api.CodeOverQuota || !eresp.Retryable {
		t.Fatalf("hog got code=%q retryable=%v, want over_quota/true", eresp.Code, eresp.Retryable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("over_quota without Retry-After header")
	}

	// A polite tenant is untouched by the hog's saturation.
	resp, eresp = postRaw(t, env.http.URL, "polite", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("polite tenant: status %d (%+v), want 200", resp.StatusCode, eresp)
	}

	// Per-tenant metrics attribute the rejection to the hog alone.
	dump := env.reg.Dump()
	if got := dump.Counters[obs.LabeledName(serve.MetricTenantOverQuota, "tenant", "hog")]; got != 1 {
		t.Errorf("hog over-quota counter = %d, want 1", got)
	}
	if got := dump.Counters[obs.LabeledName(serve.MetricTenantBatches, "tenant", "polite")]; got != 1 {
		t.Errorf("polite batch counter = %d, want 1", got)
	}
}

// TestJobUnknownCode: polling a job the server does not know answers
// 404 with code=job_unknown.
func TestJobUnknownCode(t *testing.T) {
	env := newEnv(t, nil)
	resp, err := http.Get(env.http.URL + "/v1/runs/job-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var eresp api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatal(err)
	}
	if eresp.Code != api.CodeJobUnknown || eresp.Retryable {
		t.Fatalf("got code=%q retryable=%v, want job_unknown/false", eresp.Code, eresp.Retryable)
	}
}

// TestStoreFailureCode: when the journal cannot persist an async
// accept, the 500 names the condition (store_failure, retryable) —
// the batch itself was fine.
func TestStoreFailureCode(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	journal, err := store.OpenJournal(jpath, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, func(o *serve.Options) { o.Journal = journal })
	journal.Close() // every future append fails

	body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: smallBatch()})
	resp, eresp := postRaw(t, env.http.URL, "", string(body))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%+v), want 500", resp.StatusCode, eresp)
	}
	if eresp.Code != api.CodeStoreFailure || !eresp.Retryable {
		t.Fatalf("got code=%q retryable=%v, want store_failure/true", eresp.Code, eresp.Retryable)
	}
}

// TestTenantEcho: an explicit tenant is echoed on sync responses, 202
// shells and job polls; a tenant-less request gets byte-identical
// pre-tenancy behaviour — no tenant key at all, even though the
// server accounts it under a derived default.
func TestTenantEcho(t *testing.T) {
	env := newEnv(t, nil)
	body, _ := json.Marshal(api.BatchRequest{Requests: smallBatch()})

	// Tenant-less: the raw body must not mention the field.
	resp, _ := postRaw(t, env.http.URL, "", string(body))
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-less run: status %d", resp.StatusCode)
	}
	if bytes.Contains(raw, []byte(`"tenant"`)) {
		t.Fatalf("tenant-less response leaks a tenant field: %.200s", raw)
	}

	// Explicit tenant: echoed on the sync answer.
	resp, _ = postRaw(t, env.http.URL, "team-a", string(body))
	var br api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Tenant != "team-a" {
		t.Fatalf("sync echo = %q, want team-a", br.Tenant)
	}

	// Async: echoed on the 202 shell and on polls — with the *poller's*
	// identity, since jobs are shared across identical submissions.
	abody, _ := json.Marshal(api.BatchRequest{Async: true, Requests: smallBatch()})
	resp, _ = postRaw(t, env.http.URL, "team-a", string(abody))
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || br.Tenant != "team-a" {
		t.Fatalf("202 shell: status %d tenant %q, want 202/team-a", resp.StatusCode, br.Tenant)
	}
	poll := func(tenant string) api.BatchResponse {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, env.http.URL+"/v1/runs/"+br.JobID, nil)
		if tenant != "" {
			req.Header.Set(api.TenantHeader, tenant)
		}
		presp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer presp.Body.Close()
		var out api.BatchResponse
		if err := json.NewDecoder(presp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	deadline := time.Now().Add(30 * time.Second)
	for poll("team-a").Status != api.StatusDone {
		if time.Now().After(deadline) {
			t.Fatal("async job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := poll("team-b").Tenant; got != "team-b" {
		t.Fatalf("poll echo = %q, want the poller's own tenant team-b", got)
	}
	if got := poll("").Tenant; got != "" {
		t.Fatalf("tenant-less poll echo = %q, want empty", got)
	}
}

// TestClientTenantOption: serve.Client stamps its Tenant on requests,
// and the server echoes it back — the end-to-end identity loop.
func TestClientTenantOption(t *testing.T) {
	env := newEnv(t, nil)
	c := serve.NewClient(env.http.URL)
	c.Tenant = "sweeper"
	resp, err := c.Run(context.Background(), smallBatch())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "sweeper" {
		t.Fatalf("client tenant echo = %q, want sweeper", resp.Tenant)
	}
	if fmt.Sprint(resp.Status) != api.StatusDone {
		t.Fatalf("status %v", resp.Status)
	}
}
