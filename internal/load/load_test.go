// Black-box load tests: a real Generator fleet against a real
// in-process wpserved on a loopback socket. Runs are kept short and
// the fleets small — these verify the harness's plumbing and
// accounting under -race; cmd/wpload -smoke is where the ≥200-client
// SLO gate lives.
package load_test

import (
	"context"
	"testing"
	"time"

	"wayplace/internal/load"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
)

func startLoopback(t *testing.T, opt load.LoopbackOptions) *load.Loopback {
	t.Helper()
	lb, err := load.StartLoopback(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := lb.Close(ctx); err != nil {
			t.Errorf("loopback close: %v", err)
		}
	})
	return lb
}

func run(t *testing.T, lb *load.Loopback, opt load.Options) (*load.Generator, *load.Report) {
	t.Helper()
	opt.BaseURL = lb.URL
	if opt.Pool == nil {
		opt.Pool = load.Pool(lb.Workloads, load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10})
	}
	gen, err := load.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	report, err := gen.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return gen, report
}

// TestMixedLoadAgainstLoopback is the harness's bread and butter: a
// sync/async mix over a zipfian pool, everything accounted for, the
// hot keys served from the warm run cache, zero errors.
func TestMixedLoadAgainstLoopback(t *testing.T) {
	lb := startLoopback(t, load.LoopbackOptions{Workloads: 2})
	gen, r := run(t, lb, load.Options{
		Clients: 16, Duration: 600 * time.Millisecond,
		AsyncFraction: 0.4, MaxBatchCells: 4,
		Seed: 7,
	})

	if r.Batches == 0 {
		t.Fatal("no batch completed")
	}
	if r.Errors != 0 || r.Dropped != 0 {
		t.Fatalf("clean run saw %d errors, %d dropped", r.Errors, r.Dropped)
	}
	if r.Requests < r.Batches {
		t.Fatalf("%d requests < %d batches", r.Requests, r.Batches)
	}
	if r.Cells < r.Batches {
		t.Fatalf("%d cells < %d batches", r.Cells, r.Batches)
	}
	if r.AsyncPolls == 0 {
		t.Error("40% async mix issued no status polls")
	}
	if r.HTTPP50 <= 0 || r.HTTPP99 < r.HTTPP50 {
		t.Errorf("nonsense HTTP quantiles: p50 %v, p99 %v", r.HTTPP50, r.HTTPP99)
	}
	if r.BatchP99 < r.BatchP50 || r.CellP99 < r.CellP50 {
		t.Errorf("nonsense batch/cell quantiles: %+v", r)
	}

	// The whole run draws from a fixed canonical pool, so the engine
	// simulates each distinct cell at most once and serves the rest
	// from the warm run cache — the very path the harness exists to
	// stress.
	pool := uint64(len(load.Pool(lb.Workloads, load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10})))
	if misses := lb.Engine.Misses(); misses > pool {
		t.Errorf("engine simulated %d cells for a %d-cell pool — run cache not reused", misses, pool)
	}
	if r.Cells > pool && lb.Engine.Hits() == 0 {
		t.Error("no run-cache hits despite re-requesting pool cells")
	}

	// The generator's registry carries every load_* instrument.
	dump := gen.Registry().Dump()
	if dump.Counters[load.MetricBatches] != r.Batches {
		t.Errorf("registry %s = %d, report says %d", load.MetricBatches, dump.Counters[load.MetricBatches], r.Batches)
	}
	if _, ok := dump.Histograms[load.MetricRequestNS]; !ok {
		t.Errorf("registry missing %s", load.MetricRequestNS)
	}
}

// TestBackpressureRetries: against a deliberately tiny queue the
// clients must see 429s, honour Retry-After (capped), and still land
// their batches — backpressure is throttling, not failure.
func TestBackpressureRetries(t *testing.T) {
	lb := startLoopback(t, load.LoopbackOptions{Workloads: 1, QueueDepth: 2})
	_, r := run(t, lb, load.Options{
		Clients: 16, Duration: 900 * time.Millisecond,
		AsyncFraction: 0, MaxBatchCells: 3,
		MaxRetries: 50, MaxRetryBackoff: 20 * time.Millisecond,
		Seed: 11,
	})
	if r.Status429 == 0 {
		t.Fatal("16 clients on a depth-2 queue never saw a 429")
	}
	if r.Retries == 0 {
		t.Fatal("429s observed but no retries issued")
	}
	if r.Batches == 0 {
		t.Fatal("backpressure starved every client — no batch ever completed")
	}
	if r.Errors != 0 {
		t.Fatalf("backpressure produced %d hard errors", r.Errors)
	}
}

// TestChurnAborts: churn=1 means every submission is abandoned
// mid-request; the server must shrug it off and the accounting must
// call them aborts, not errors.
func TestChurnAborts(t *testing.T) {
	lb := startLoopback(t, load.LoopbackOptions{Workloads: 1})
	_, r := run(t, lb, load.Options{
		Clients: 8, Duration: 300 * time.Millisecond,
		AsyncFraction: 0.25, Churn: 1, Seed: 13,
	})
	if r.Aborts == 0 {
		t.Fatal("full-churn run recorded no aborts")
	}
	if r.Batches != 0 {
		t.Fatalf("full-churn run completed %d batches", r.Batches)
	}
	if r.Errors != 0 {
		t.Fatalf("aborted submissions counted as %d errors", r.Errors)
	}

	// Let the abort backlog unwind before the timed clean window: on a
	// starved -race runner the server spends a while finishing ~10³
	// cancelled handlers, and a 200ms generator window that starts
	// behind that queue completes nothing. One blocking round trip
	// with a generous deadline is the settle barrier.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	pool := load.Pool(lb.Workloads, load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10})
	if _, err := serve.NewClient(lb.URL).Run(sctx, pool[:1]); err != nil {
		t.Fatalf("server unresponsive after churn: %v", err)
	}

	// The server survived the churn: a clean client still gets served.
	_, clean := run(t, lb, load.Options{
		Clients: 2, Duration: 200 * time.Millisecond,
		AsyncFraction: 0.25, Seed: 17,
	})
	if clean.Batches == 0 || clean.Errors != 0 {
		t.Fatalf("server unhealthy after churn: %d batches, %d errors", clean.Batches, clean.Errors)
	}
}

// TestAsyncOnly: a pure-async fleet exercises submit→202→poll→done
// for every batch, sharing the server registry so the serve-side
// async metrics are visible too.
func TestAsyncOnly(t *testing.T) {
	reg := obs.NewRegistry()
	lb := startLoopback(t, load.LoopbackOptions{Workloads: 1, Registry: reg})
	_, r := run(t, lb, load.Options{
		Clients: 8, Duration: 500 * time.Millisecond,
		AsyncFraction: 1, Seed: 19,
	})
	if r.Batches == 0 {
		t.Fatal("no async batch completed")
	}
	if r.AsyncPolls == 0 {
		t.Fatal("async batches completed without a single poll")
	}
	if r.Errors != 0 {
		t.Fatalf("async run saw %d errors (a poll 404 would land here)", r.Errors)
	}
}

// TestAsyncZeroRunsSync: AsyncFraction 0 means no async batches at
// all, and the snapshot records the shape the generator resolved, not
// the zeros the caller left for defaults.
func TestAsyncZeroRunsSync(t *testing.T) {
	lb := startLoopback(t, load.LoopbackOptions{Workloads: 1})
	_, r := run(t, lb, load.Options{
		Clients: 4, Duration: 300 * time.Millisecond,
		AsyncFraction: 0, Seed: 23,
	})
	if r.Batches == 0 {
		t.Fatal("no batch completed")
	}
	if r.AsyncPolls != 0 {
		t.Errorf("AsyncFraction 0 issued %d async polls", r.AsyncPolls)
	}
	snap := r.Snapshot("wpload", "loopback", nil)
	if snap.AsyncFraction != 0 || snap.MaxBatchCells != 8 || snap.ZipfS != 1.2 || snap.Clients != 4 {
		t.Errorf("snapshot shape async %v, batch %d, zipf %v, clients %d; want the resolved 0, 8, 1.2, 4",
			snap.AsyncFraction, snap.MaxBatchCells, snap.ZipfS, snap.Clients)
	}
}
