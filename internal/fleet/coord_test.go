package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/fleet"
	"wayplace/internal/load"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
)

// startBackends boots n in-process wpserved instances over the same
// synthetic workload set.
func startBackends(t *testing.T, n, workloads int) []*load.Loopback {
	t.Helper()
	return startObserved(t, make([]*obs.Registry, n), workloads)
}

// startObserved boots one backend per registry, each reporting its
// serve and engine metrics there (a nil registry reports nowhere).
func startObserved(t *testing.T, regs []*obs.Registry, workloads int) []*load.Loopback {
	t.Helper()
	backs := make([]*load.Loopback, len(regs))
	for i := range backs {
		lb, err := load.StartLoopback(load.LoopbackOptions{Workloads: workloads, Registry: regs[i]})
		if err != nil {
			t.Fatalf("backend %d: %v", i, err)
		}
		backs[i] = lb
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			lb.Close(ctx)
		})
	}
	return backs
}

func startCoordinator(t *testing.T, backs []*load.Loopback, opt fleet.Options) (*fleet.Coordinator, *httptest.Server) {
	t.Helper()
	if opt.Backends == nil {
		for _, lb := range backs {
			opt.Backends = append(opt.Backends, lb.URL)
		}
	}
	c, err := fleet.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, srv
}

// testPool is the canonical wpload cell pool over w workloads.
func testPool(w int) []api.RunRequest {
	return load.Pool(load.SyntheticNames(w), load.SyntheticGeometry(),
		[]uint32{1 << 10, 4 << 10, 8 << 10, 16 << 10})
}

// directEngine is a plain local engine over the same workloads: the
// ground truth a fleet answer must match byte for byte
// (api.CheckIdentical).
func directEngine(workloads int) *engine.Engine {
	return engine.New(load.SyntheticProvider(workloads), engine.WithBaseConfig(sim.Default()))
}

// spread counts how many backends simulated at least one cell.
func spread(backs []*load.Loopback) int {
	n := 0
	for _, lb := range backs {
		if lb.Engine.Misses() > 0 {
			n++
		}
	}
	return n
}

func sumMisses(backs []*load.Loopback) uint64 {
	var n uint64
	for _, lb := range backs {
		n += lb.Engine.Misses()
	}
	return n
}

func TestCoordinatorSyncIdenticalToDirectRun(t *testing.T) {
	const workloads = 12
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	backs := startObserved(t, regs, workloads)
	_, srv := startCoordinator(t, backs, fleet.Options{})
	reqs := testPool(workloads)
	direct := directEngine(workloads)

	client := serve.NewClient(srv.URL)
	resp, err := client.Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.CheckIdentical(context.Background(), direct, reqs, resp); err != nil {
		t.Fatal(err)
	}
	if resp.JobID != api.BatchKey(reqs) {
		t.Errorf("job id %q, want deterministic %q", resp.JobID, api.BatchKey(reqs))
	}
	if s := spread(backs); s < 2 {
		t.Errorf("batch landed on %d backend(s), want the ring to spread it over >= 2", s)
	}
	if got, want := sumMisses(backs), uint64(len(reqs)); got != want {
		t.Errorf("fleet simulated %d cells for %d unique cells", got, want)
	}
}

func TestCoordinatorOncePerFleetAcrossRepeats(t *testing.T) {
	const workloads = 4
	backs := startBackends(t, 3, workloads)
	_, srv := startCoordinator(t, backs, fleet.Options{})
	reqs := testPool(workloads)
	client := serve.NewClient(srv.URL)
	for round := 0; round < 3; round++ {
		resp, err := client.Run(context.Background(), reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if resp.Status != api.StatusDone {
			t.Fatalf("round %d: status %q", round, resp.Status)
		}
		if round > 0 {
			for i, rr := range resp.Results {
				if !rr.CacheHit {
					t.Fatalf("round %d: cell %d re-simulated — repeat keys must hit the same backend's cache", round, i)
				}
			}
		}
	}
	if got, want := sumMisses(backs), uint64(len(reqs)); got != want {
		t.Errorf("fleet simulated %d cells over 3 rounds, want exactly %d (once per fleet)", got, want)
	}
}

// TestCoordinatorRunsEachWorkloadOnce: the ring routes on the
// workload, so however a workload's cells arrive — here each cell of
// the pool as its own batch — one backend simulates all of them, of
// both layouts. It executes the workload once, for whichever of its
// cells arrives first, and replays that recording, relocated where
// needed, for the rest: the fleet executes each workload exactly once.
func TestCoordinatorRunsEachWorkloadOnce(t *testing.T) {
	const workloads = 12
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	backs := startObserved(t, regs, workloads)
	_, srv := startCoordinator(t, backs, fleet.Options{})
	reqs := testPool(workloads)

	client := serve.NewClient(srv.URL)
	simulatedOn := make(map[string]map[int]bool) // workload -> backends
	for i, req := range reqs {
		before := make([]uint64, len(backs))
		for b, lb := range backs {
			before[b] = lb.Engine.Misses()
		}
		resp, err := client.Run(context.Background(), []api.RunRequest{req})
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if resp.Status != api.StatusDone {
			t.Fatalf("cell %d: status %q errors %v", i, resp.Status, resp.Errors)
		}
		if simulatedOn[req.Workload] == nil {
			simulatedOn[req.Workload] = make(map[int]bool)
		}
		for b, lb := range backs {
			if lb.Engine.Misses() > before[b] {
				simulatedOn[req.Workload][b] = true
			}
		}
	}
	for wl, on := range simulatedOn {
		if len(on) != 1 {
			t.Errorf("workload %s simulated on %d backends, want 1", wl, len(on))
		}
	}
	if got, want := sumMisses(backs), uint64(len(reqs)); got != want {
		t.Errorf("fleet simulated %d cells for %d unique cells", got, want)
	}
	var execs uint64
	for _, reg := range regs {
		execs += reg.Counter(engine.MetricTraceMisses).Value()
	}
	if execs != workloads {
		t.Errorf("fleet executed programs %d times, want %d: once per workload", execs, workloads)
	}
}

func postBatch(t *testing.T, url string, breq api.BatchRequest) (*http.Response, *api.BatchResponse) {
	t.Helper()
	breq.APIVersion = api.Version
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp api.BatchResponse
	if httpResp.StatusCode == http.StatusOK || httpResp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	return httpResp, &resp
}

func TestCoordinatorAsyncIdenticalToDirectRun(t *testing.T) {
	const workloads = 4
	backs := startBackends(t, 3, workloads)
	_, srv := startCoordinator(t, backs, fleet.Options{})
	reqs := testPool(workloads)
	direct := directEngine(workloads)

	httpResp, shell := postBatch(t, srv.URL, api.BatchRequest{Requests: reqs, Async: true})
	if httpResp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d, want 202", httpResp.StatusCode)
	}
	if shell.JobID != api.BatchKey(reqs) {
		t.Fatalf("async job id %q, want %q", shell.JobID, api.BatchKey(reqs))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := serve.NewClient(srv.URL).Poll(ctx, shell.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.CheckIdentical(ctx, direct, reqs, final); err != nil {
		t.Fatal(err)
	}
	if got, want := sumMisses(backs), uint64(len(reqs)); got != want {
		t.Errorf("fleet simulated %d cells for %d unique cells", got, want)
	}

	// A duplicate async submission attaches to the finished job.
	httpResp2, dup := postBatch(t, srv.URL, api.BatchRequest{Requests: reqs, Async: true})
	if httpResp2.StatusCode != http.StatusAccepted || dup.Status != api.StatusDone {
		t.Errorf("duplicate submit: status %d job status %q, want 202/done", httpResp2.StatusCode, dup.Status)
	}
}

func TestCoordinatorFailsOverDeadBackend(t *testing.T) {
	const workloads = 12
	backs := startBackends(t, 2, workloads)
	// A dead third backend: reserve a port, then close it.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	reg := obs.NewRegistry()
	_, srv := startCoordinator(t, backs, fleet.Options{
		Backends: []string{backs[0].URL, backs[1].URL, deadURL},
		Registry: reg,
		Failover: 1,
	})
	reqs := testPool(workloads)
	direct := directEngine(workloads)

	resp, err := serve.NewClient(srv.URL).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.CheckIdentical(context.Background(), direct, reqs, resp); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter(fleet.MetricFailovers).Value(); v == 0 {
		t.Error("no failovers recorded despite a dead ring member")
	}
}

func TestCoordinatorReportsCellFailuresWithoutFailover(t *testing.T) {
	const workloads = 12
	backs := startBackends(t, 2, workloads)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, srv := startCoordinator(t, backs, fleet.Options{
		Backends: []string{backs[0].URL, backs[1].URL, deadURL},
		Failover: -1, // disabled
	})
	reqs := testPool(workloads)
	httpResp, resp := postBatch(t, srv.URL, api.BatchRequest{Requests: reqs})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with per-cell failures", httpResp.StatusCode)
	}
	if resp.Status != api.StatusFailed || len(resp.Errors) == 0 {
		t.Fatalf("status %q with %d failures, want failed batch naming the dead backend's cells",
			resp.Status, len(resp.Errors))
	}
	if len(resp.Errors) == len(reqs) {
		t.Fatalf("every cell failed; only the dead backend's shard should")
	}
	for _, f := range resp.Errors {
		if resp.Results[f.Index].Stats != nil {
			t.Errorf("failed cell %d carries stats", f.Index)
		}
	}
}

// TestCoordinatorPropagatesBusy: when a shard owner keeps answering
// 429+Retry-After past the retry budget, the coordinator answers 429
// with the backend's hint — backpressure, not failover, so the warm
// shard placement survives overload.
func TestCoordinatorPropagatesBusy(t *testing.T) {
	attempts := 0
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "backend saturated", RetryAfterSeconds: 7})
	}))
	defer busy.Close()

	_, srv := startCoordinator(t, nil, fleet.Options{
		Backends:       []string{busy.URL},
		BackendRetries: 2,
	})
	reqs := testPool(1)
	httpResp, _ := postBatch(t, srv.URL, api.BatchRequest{Requests: reqs})
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", httpResp.StatusCode)
	}
	if got := httpResp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After %q, want the backend's hint 7", got)
	}
	if attempts != 3 { // 1 try + BackendRetries
		t.Errorf("backend saw %d attempts, want 3", attempts)
	}
}

func TestCoordinatorValidatesLikeABackend(t *testing.T) {
	backs := startBackends(t, 1, 2)
	_, srv := startCoordinator(t, backs, fleet.Options{})
	// Invalid cell: no workload.
	bad := api.BatchRequest{Requests: []api.RunRequest{{Scheme: api.SchemeBaseline}}}
	httpResp, _ := postBatch(t, srv.URL, bad)
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid batch got %d, want 400", httpResp.StatusCode)
	}
	// Unknown job.
	resp, err := http.Get(srv.URL + "/v1/runs/job-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job got %d, want 404", resp.StatusCode)
	}
}

func TestCoordinatorHealthAggregatesBackends(t *testing.T) {
	backs := startBackends(t, 2, 2)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, srv := startCoordinator(t, backs, fleet.Options{
		Backends: []string{backs[0].URL, backs[1].URL, deadURL},
	})
	httpResp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Ring   struct {
			HealthyBackends int      `json:"healthy_backends"`
			Backends        []string `json:"backends"`
		} `json:"ring"`
		Backends []struct {
			Name string `json:"name"`
			OK   bool   `json:"ok"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Errorf("status %q, want degraded with one dead backend", h.Status)
	}
	if h.Ring.HealthyBackends != 2 || len(h.Ring.Backends) != 3 || len(h.Backends) != 3 {
		t.Errorf("ring health %+v, want 2 healthy of 3", h)
	}
	okCount := 0
	for _, b := range h.Backends {
		if b.OK {
			okCount++
		}
	}
	if okCount != 2 {
		t.Errorf("%d backends report ok, want 2", okCount)
	}
}

func TestCoordinatorShutdownRefusesNewBatches(t *testing.T) {
	backs := startBackends(t, 1, 2)
	c, srv := startCoordinator(t, backs, fleet.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	httpResp, _ := postBatch(t, srv.URL, api.BatchRequest{Requests: testPool(1)})
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("post-shutdown status %d, want 429", httpResp.StatusCode)
	}
}

func ExampleNewRing() {
	ring, _ := fleet.NewRing([]string{"http://a:8100", "http://b:8100", "http://c:8100"}, 0)
	key := "one-canonical-runspec-key"
	fmt.Println(len(ring.Sequence(key, 2)), ring.Owner(key) == ring.Sequence(key, 2)[0])
	// Output: 2 true
}
