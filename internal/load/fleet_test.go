// Fleet-harness tests: StartFleet plumbing, the once-per-fleet
// invariant under generator load, the FleetBench scaling measurement,
// and the shared-transport keep-alive guarantee. Kept short and small
// for -race; cmd/wpload -fleet is where the 4-backend gate lives.
package load_test

import (
	"context"
	"testing"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/fleet"
	"wayplace/internal/load"
	"wayplace/internal/serve"
)

func startFleet(t *testing.T, opt load.FleetOptions) *load.Fleet {
	t.Helper()
	f, err := load.StartFleet(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Errorf("fleet close: %v", err)
		}
	})
	return f
}

// TestFleetOncePerFleetUnderLoad: a zipfian generator run against a
// 3-backend fleet must behave exactly like one against a single
// backend — zero errors — and the fleet as a whole must simulate each
// distinct pool cell at most once, however many times the hot keys
// are re-requested.
func TestFleetOncePerFleetUnderLoad(t *testing.T) {
	// Twelve workloads, so that the ring's random split of them over
	// three backends leaves every backend with some.
	const workloads = 12
	f := startFleet(t, load.FleetOptions{Backends: 3, Workloads: workloads})
	pool := load.Pool(load.SyntheticNames(workloads), load.SyntheticGeometry(), []uint32{1 << 10, 2 << 10})

	// Deterministic phase first: the whole pool through the
	// coordinator, twice. Every cell lands on its ring owner and is
	// simulated exactly once fleet-wide; the second pass is all hits.
	client := serve.NewClient(f.URL)
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		resp, err := client.Run(ctx, pool)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusDone || len(resp.Errors) != 0 {
			t.Fatalf("pass %d: status %q, %d errors", pass, resp.Status, len(resp.Errors))
		}
	}
	if sim := f.SimulatedCells(); sim != uint64(len(pool)) {
		t.Fatalf("fleet simulated %d cells for a %d-cell pool", sim, len(pool))
	}

	// Then concurrent clients; nothing they do may force a second
	// simulation of a pool cell anywhere in the fleet.
	gen, err := load.New(load.Options{
		BaseURL: f.URL, Pool: pool,
		Clients: 16, Duration: 600 * time.Millisecond,
		AsyncFraction: 0.3, MaxBatchCells: 4,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Batches == 0 {
		t.Fatal("no batch completed")
	}
	if r.Errors != 0 || r.Dropped != 0 {
		t.Fatalf("clean fleet run saw %d errors, %d dropped", r.Errors, r.Dropped)
	}
	if sim := f.SimulatedCells(); sim != uint64(len(pool)) {
		t.Errorf("generator load re-simulated cells: %d total for a %d-cell pool", sim, len(pool))
	}

	// The ring must actually spread the pool: every backend simulated
	// exactly the cells the ring assigns it by workload, and more than
	// one backend owns cells. Backends listen on random ports and the
	// ring hashes their URLs, so the shares differ from run to run and
	// are computed here from the ring. Each workload executed once,
	// fleet-wide.
	urls := make([]string, len(f.Backends))
	for i, lb := range f.Backends {
		urls[i] = lb.URL
	}
	ring, err := fleet.NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]uint64, len(urls))
	for _, req := range pool {
		owned[ring.Owner(req.Workload)]++
	}
	var execs uint64
	for _, lb := range f.Backends {
		execs += lb.Engine.TraceMisses()
	}
	if execs != workloads {
		t.Errorf("fleet executed programs %d times, want %d: once per workload", execs, workloads)
	}
	owners := 0
	for i, lb := range f.Backends {
		if got := lb.Engine.Misses(); got != owned[i] {
			t.Errorf("backend %d simulated %d cells, the ring assigns it %d", i, got, owned[i])
		}
		if owned[i] > 0 {
			owners++
		}
	}
	if owners < 2 {
		t.Errorf("the ring put all %d pool cells on one backend", len(pool))
	}
}

// TestFleetBenchScales exercises the scaling measurement end to end
// on a deliberately small pool. With latency-dominated cells even a
// single-core host must show a 2-backend fleet beating one backend.
// The ring places the 12 workloads by the backends' random loopback
// ports, so the floor is 0.6 of the ideal that run's split allows:
// 1.2x at an even split, well under the 2x ideal to stay honest on
// loaded CI runners.
func TestFleetBenchScales(t *testing.T) {
	// 150ms per preparation keeps the cells latency-dominated even
	// under -race, where the simulator's CPU share grows an order of
	// magnitude.
	res, err := load.FleetBench(context.Background(), load.FleetBenchOptions{
		Backends:  2,
		Workloads: 12,
		PrepDelay: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OncePerFleet {
		t.Errorf("bench reported once-per-fleet broken: %+v", res)
	}
	if res.SimulatedCells != uint64(res.ScalePoolCells) {
		t.Errorf("bench simulated %d cells for a %d-cell pool", res.SimulatedCells, res.ScalePoolCells)
	}
	if res.IdealSpeedup < 1 || res.IdealSpeedup > 2 {
		t.Errorf("2-backend ideal speedup %.2fx outside [1, 2]", res.IdealSpeedup)
	}
	if floor := 0.6 * res.IdealSpeedup; res.Speedup < floor {
		t.Errorf("2-backend speedup %.2fx below asserted floor %.2fx (0.6 of the split's ideal %.2fx)",
			res.Speedup, floor, res.IdealSpeedup)
	}
	if res.HostCPUs < 1 || res.PrepDelaySeconds != 0.15 {
		t.Errorf("bench provenance not recorded: %+v", res)
	}
}

// TestGeneratorReusesConnections is the keep-alive gate: the shared
// pooled transport must serve a no-churn run over a handful of TCP
// connections, not one per request. The server-side accept counter is
// the ground truth. A busy host serves fewer requests in one run, so
// the same generator runs again until it has served enough to judge;
// each run closes its idle connections at the end, so every further
// run pays about 16 new ones against the same limit.
func TestGeneratorReusesConnections(t *testing.T) {
	lb := startLoopback(t, load.LoopbackOptions{Workloads: 2})
	gen, r := run(t, lb, load.Options{
		Clients: 16, Duration: 600 * time.Millisecond,
		AsyncFraction: 0.3, MaxBatchCells: 4,
		Churn: 0, Seed: 13,
	})
	// 16 clients need ~16 warm connections per run; transient extras
	// during ramp-up are fine. What must never come back is
	// connection-per-request.
	const limit = uint64(16 * 4)
	for runs := 1; r.Requests < 100 && lb.Conns() <= limit; runs++ {
		if runs == 4 {
			t.Fatalf("run too short to judge reuse: %d requests in %d runs", r.Requests, runs)
		}
		var err error
		if r, err = gen.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	conns := lb.Conns()
	if conns > limit {
		t.Errorf("%d requests used %d TCP connections (> %d) — keep-alive/pooling is broken",
			r.Requests, conns, limit)
	}
	if conns == 0 {
		t.Error("accept counter saw no connections — the counting listener is not wired")
	}
}
