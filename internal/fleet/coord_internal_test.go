package fleet

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"wayplace/internal/api"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
)

// TestTenantQuotaVerdicts: the coordinator's admission honours its own
// options — TenantSlots binds per tenant, second tenants are
// unaffected, QueueDepth bounds the pool, and a quota spanning the
// whole pool is no quota.
func TestTenantQuotaVerdicts(t *testing.T) {
	c, err := New(Options{
		Backends:    []string{"http://127.0.0.1:1"},
		QueueDepth:  4,
		TenantSlots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	admit := func(c *Coordinator, tenant string) serve.Verdict {
		return c.sched.Admit(ctx, tenant, false, 1)
	}
	if admit(c, "a") != serve.AdmitOK || admit(c, "a") != serve.AdmitOK {
		t.Fatal("tenant a refused under quota")
	}
	if v := admit(c, "a"); v != serve.AdmitOverQuota {
		t.Fatalf("tenant a at cap: verdict %v, want over_quota", v)
	}
	if v := admit(c, "b"); v != serve.AdmitOK {
		t.Fatalf("tenant b blocked by a's quota: verdict %v", v)
	}
	if admit(c, "b") != serve.AdmitOK {
		t.Fatal("tenant b refused under quota")
	}
	// Pool of 4 is now full: even a fresh tenant sees the global answer.
	if v := admit(c, "c"); v != serve.AdmitQueueFull {
		t.Fatalf("full pool: verdict %v, want queue_full", v)
	}

	// TenantSlots == QueueDepth disables the per-tenant distinction.
	c2, err := New(Options{Backends: []string{"http://127.0.0.1:1"}, QueueDepth: 2, TenantSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if admit(c2, "x") != serve.AdmitOK || admit(c2, "x") != serve.AdmitOK {
		t.Fatal("vacuous quota refused admissions")
	}
	if v := admit(c2, "x"); v != serve.AdmitQueueFull {
		t.Fatalf("quota == pool: verdict %v, want the global queue_full", v)
	}
}

// brokenWriter fails every body write, as a connection the client
// closed mid-answer does.
type brokenWriter struct{ header http.Header }

func (b *brokenWriter) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}
func (b *brokenWriter) WriteHeader(int)           {}
func (b *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("write: broken pipe") }

// TestTruncatedWritesCounted: an answer whose body fails after the
// status line counts on fleet_write_errors_total, like the backend's
// serve_write_errors_total.
func TestTruncatedWritesCounted(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Options{Backends: []string{"http://127.0.0.1:1"}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.out.JSON(&brokenWriter{}, http.StatusOK, map[string]string{"k": "v"})
	c.out.Batch(&brokenWriter{}, http.StatusOK, &api.BatchResponse{APIVersion: api.Version, Status: api.StatusDone})
	if got := reg.Dump().Counters[MetricWriteErrors]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricWriteErrors, got)
	}
}
