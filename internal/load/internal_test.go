package load

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wayplace/internal/api"
)

// TestZipfPickerSkew: the picker must hit rank 0 far harder than the
// tail and never leave [0,n) — that is what makes the pool's leading
// cells the run-cache hot set.
func TestZipfPickerSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, draws = 16, 20_000
	pick := newPicker(rng, 1.2, n)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		idx := pick()
		if idx < 0 || idx >= n {
			t.Fatalf("pick returned %d, outside [0,%d)", idx, n)
		}
		counts[idx]++
	}
	if counts[0] <= draws/4 {
		t.Errorf("rank 0 drew %d of %d — no hot set", counts[0], draws)
	}
	if counts[0] <= 4*counts[n-1] {
		t.Errorf("rank 0 (%d) not ≫ rank %d (%d) — distribution is flat", counts[0], n-1, counts[n-1])
	}
}

func TestPickerSingleEntryPool(t *testing.T) {
	pick := newPicker(rand.New(rand.NewSource(1)), 1.2, 1)
	for i := 0; i < 100; i++ {
		if got := pick(); got != 0 {
			t.Fatalf("single-entry pool picked %d", got)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	pool := Pool([]string{"w"}, SyntheticGeometry(), nil)
	for name, opt := range map[string]Options{
		"no base url": {Pool: pool},
		"empty pool":  {BaseURL: "http://127.0.0.1:1"},
		"bad churn":   {BaseURL: "http://127.0.0.1:1", Pool: pool, Churn: 1.5},
		"bad async":   {BaseURL: "http://127.0.0.1:1", Pool: pool, AsyncFraction: -0.1},
	} {
		if _, err := New(opt); err == nil {
			t.Errorf("New(%s): no error", name)
		}
	}
	if _, err := New(Options{BaseURL: "http://127.0.0.1:1", Pool: pool}); err != nil {
		t.Errorf("New(valid): %v", err)
	}
}

func TestSLOCheck(t *testing.T) {
	r := &Report{
		Batches:   100,
		HTTPP50:   40 * time.Millisecond,
		HTTPP99:   900 * time.Millisecond,
		CellP99:   200 * time.Millisecond,
		Rate429:   0.30,
		ErrorRate: 0.02,
	}

	pass := SLO{
		HTTPP50Max: 50 * time.Millisecond,
		HTTPP99Max: time.Second,
		CellP99Max: 500 * time.Millisecond,
		Max429Rate: 0.5, MaxErrorRate: 0.05,
	}
	if v := pass.Check(r); len(v) != 0 {
		t.Fatalf("passing SLO reported violations: %v", v)
	}

	fail := SLO{
		HTTPP50Max: 10 * time.Millisecond,
		HTTPP99Max: 100 * time.Millisecond,
		CellP99Max: 100 * time.Millisecond,
		Max429Rate: 0.1, MaxErrorRate: 0.01,
	}
	if v := fail.Check(r); len(v) != 5 {
		t.Fatalf("want all 5 SLOs violated, got %d: %v", len(v), v)
	}

	// Zero/negative fields are unchecked.
	if v := (SLO{Max429Rate: -1, MaxErrorRate: -1}).Check(r); len(v) != 0 {
		t.Fatalf("unchecked SLO reported violations: %v", v)
	}

	// An empty run never passes, whatever the envelope.
	if v := (SLO{Max429Rate: -1, MaxErrorRate: -1}).Check(&Report{}); len(v) == 0 {
		t.Fatal("zero-batch run passed the SLO check")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	opt := Options{
		BaseURL: "http://x", Pool: Pool([]string{"a", "b"}, SyntheticGeometry(), []uint32{1 << 10}),
	}
	opt.setDefaults()
	r := &Report{
		Elapsed: 2 * time.Second, opt: opt,
		Requests: 1000, Batches: 900, Cells: 3600, Status429: 40, Retries: 38,
		Errors: 1, Aborts: 20, AsyncPolls: 500,
		HTTPP50: 8 * time.Millisecond, HTTPP99: 130 * time.Millisecond,
		Rate429: 0.04, ErrorRate: 0.0011,
	}
	slo := &SLO{HTTPP99Max: time.Second, Max429Rate: 0.5, MaxErrorRate: 0.01}
	snap := r.Snapshot("wpload -smoke", "loopback", slo)
	if !snap.SLO.Pass {
		t.Fatalf("snapshot SLO should pass, violations: %v", snap.SLO.Violations)
	}

	path := filepath.Join(t.TempDir(), "BENCH_wpload.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SnapshotSchema || got.Batches != 900 || got.Clients != opt.Clients {
		t.Fatalf("round trip mangled snapshot: %+v", got)
	}
	if got.HTTPP99() != r.HTTPP99 {
		t.Fatalf("p99 round trip: %v != %v", got.HTTPP99(), r.HTTPP99)
	}

	// A wpbench snapshot (or any foreign schema) must be rejected.
	bad := *snap
	bad.Schema = "wpbench-snapshot/v1"
	if err := bad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
}

// TestCodedRetryDecisions: the retry loop trusts the machine-readable
// code over Retry-After sniffing — a coded retryable 429 without a
// header is retried, a coded permanent 429 with a header is not, and
// over_quota rejections are tallied on their own counter.
func TestCodedRetryDecisions(t *testing.T) {
	cases := []struct {
		name        string
		code        string
		retryable   bool
		retryHeader string
		wantBatch   bool   // submitWithRetry eventually succeeds
		wantRetries uint64 // load_retries_total after the call
		wantQuota   uint64 // load_http_over_quota_total after the call
	}{
		{"coded retryable without header", api.CodeQueueFull, true, "", true, 1, 0},
		{"coded permanent despite header", api.CodeBatchTooLarge, false, "1", false, 0, 0},
		{"over quota counted separately", api.CodeOverQuota, true, "0", true, 1, 1},
		{"pre-code server sniffs header", "", false, "0", true, 1, 0},
		{"pre-code server without header", "", false, "", false, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Uint64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					if c.retryHeader != "" {
						w.Header().Set("Retry-After", c.retryHeader)
					}
					w.WriteHeader(http.StatusTooManyRequests)
					json.NewEncoder(w).Encode(api.ErrorResponse{
						Error: "busy", Code: c.code, Retryable: c.retryable,
					})
					return
				}
				json.NewEncoder(w).Encode(api.BatchResponse{
					APIVersion: api.Version, Status: api.StatusDone,
				})
			}))
			defer srv.Close()

			g, err := New(Options{BaseURL: srv.URL, Pool: Pool([]string{"w"}, SyntheticGeometry(), nil)})
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(api.BatchRequest{APIVersion: api.Version, Requests: g.opt.Pool[:1]})
			rng := rand.New(rand.NewSource(1))
			_, ok := g.submitWithRetry(context.Background(), srv.Client(), rng, body)
			if ok != c.wantBatch {
				t.Errorf("submitWithRetry ok=%v, want %v", ok, c.wantBatch)
			}
			if got := g.retries.Value(); got != c.wantRetries {
				t.Errorf("retries = %d, want %d", got, c.wantRetries)
			}
			if got := g.overQuota.Value(); got != c.wantQuota {
				t.Errorf("over-quota counter = %d, want %d", got, c.wantQuota)
			}
			if !c.wantBatch && g.errors.Value() != 1 {
				t.Errorf("permanent rejection not counted as an error (errors=%d)", g.errors.Value())
			}
		})
	}
}

func TestPoolShape(t *testing.T) {
	pool := Pool([]string{"a", "b"}, SyntheticGeometry(), []uint32{1 << 10, 2 << 10})
	if len(pool) != 8 {
		t.Fatalf("pool has %d cells, want 2 workloads × (2 schemes + 2 WP sizes) = 8", len(pool))
	}
	seen := map[string]bool{}
	for _, req := range pool {
		if err := req.Validate(); err != nil {
			t.Fatalf("pool cell invalid: %+v: %v", req, err)
		}
		key := req.Key()
		if seen[key] {
			t.Fatalf("duplicate canonical key %q in pool", key)
		}
		seen[key] = true
	}
}
