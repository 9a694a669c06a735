package fleet

import (
	"context"
	"testing"

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
