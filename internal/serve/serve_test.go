// Serve tests drive a real httptest server over the real engine with
// tiny synthetic workloads (the same pattern as the engine tests), so
// every property — request validation, backpressure, drain, cache
// sharing across clients, lossless wire round-trips — is exercised
// end-to-end over HTTP rather than against mocks.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/asm"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/isa"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
)

const textBase = 0x0001_0000

// buildHot assembles a small program with a hot kernel and cold
// handlers, so way-placement cells are meaningful.
func buildHot(name string, iters uint16) *obj.Unit {
	b := asm.NewBuilder(name)
	buf := b.Zeros(256)

	f := b.Func("main")
	f.Call("setup")
	f.Movi(isa.R5, iters)
	f.Block("outer")
	f.Call("kernel")
	f.Subi(isa.R5, isa.R5, 1)
	f.Cmpi(isa.R5, 0)
	f.Bgt("outer")
	f.Halt()

	for i := 0; i < 6; i++ {
		h := b.Func(fmt.Sprintf("cold_%d", i))
		for k := 0; k < 30; k++ {
			h.Addi(isa.R9, isa.R9, 1)
		}
		h.Ret()
	}

	s := b.Func("setup")
	s.Li(isa.R1, buf)
	s.Movi(isa.R2, 64)
	s.Block("fill")
	s.Str(isa.R2, isa.R1, 0)
	s.Addi(isa.R1, isa.R1, 4)
	s.Subi(isa.R2, isa.R2, 1)
	s.Cmpi(isa.R2, 0)
	s.Bgt("fill")
	s.Ret()

	k := b.Func("kernel")
	k.Li(isa.R1, buf)
	k.Movi(isa.R2, 64)
	k.Block("loop")
	k.Ldr(isa.R3, isa.R1, 0)
	k.Add(isa.R0, isa.R0, isa.R3)
	k.Addi(isa.R1, isa.R1, 4)
	k.Subi(isa.R2, isa.R2, 1)
	k.Cmpi(isa.R2, 0)
	k.Bgt("loop")
	k.Ret()

	return b.MustBuild()
}

var (
	workloadsOnce sync.Once
	workloads     map[string]*engine.Workload
	workloadsErr  error
)

func prepareWorkloads() {
	workloads = make(map[string]*engine.Workload)
	for name, iters := range map[string]uint16{"tiny1": 250, "tiny2": 140} {
		u := buildHot(name, iters)
		orig, err := layout.LinkOriginal(u, textBase)
		if err != nil {
			workloadsErr = err
			return
		}
		prof, _, err := sim.ProfileRun(orig, 50_000_000)
		if err != nil {
			workloadsErr = err
			return
		}
		placed, err := layout.Link(u, prof, textBase)
		if err != nil {
			workloadsErr = err
			return
		}
		workloads[name] = &engine.Workload{Name: name, Original: orig, Placed: placed}
	}
}

// testProvider serves the prebuilt workloads. Requests for "block:*"
// workloads park on the gate channel until the test releases them —
// that is how backpressure and drain tests hold a queue slot open
// deterministically.
func testProvider(t *testing.T, gate chan struct{}) engine.Provider {
	t.Helper()
	workloadsOnce.Do(prepareWorkloads)
	if workloadsErr != nil {
		t.Fatalf("building test workloads: %v", workloadsErr)
	}
	return func(ctx context.Context, name string) (*engine.Workload, error) {
		if strings.HasPrefix(name, "block:") {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			name = strings.TrimPrefix(name, "block:")
		}
		w, ok := workloads[name]
		if !ok {
			return nil, fmt.Errorf("no such workload %q", name)
		}
		return w, nil
	}
}

type testEnv struct {
	srv    *serve.Server
	http   *httptest.Server
	eng    *engine.Engine
	reg    *obs.Registry
	client *serve.Client
	gate   chan struct{}
}

func newEnv(t *testing.T, mutate func(*serve.Options)) *testEnv {
	t.Helper()
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	eng := engine.New(testProvider(t, gate), engine.WithObserver(reg))
	opt := serve.Options{Engine: eng, Registry: reg, RetryAfter: time.Second}
	if mutate != nil {
		mutate(&opt)
	}
	srv, err := serve.New(opt)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { close(gate) })
	return &testEnv{srv: srv, http: hs, eng: eng, reg: reg, client: serve.NewClient(hs.URL), gate: gate}
}

// waitInflight polls /healthz until the server reports n in-flight
// batches — the blocked batch has claimed its queue slot.
func waitInflight(t *testing.T, env *testEnv, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := env.client.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := h["inflight"].(float64); ok && int(got) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d in-flight batches: %+v", n, h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func xscale8() api.CacheGeometry {
	return api.CacheGeometry{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
}

func smallBatch() []api.RunRequest {
	return []api.RunRequest{
		{Workload: "tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
		{Workload: "tiny1", ICache: xscale8(), Scheme: api.SchemeWayPlacement, WPSizeBytes: 2 << 10},
		{Workload: "tiny2", ICache: xscale8(), Scheme: api.SchemeWayMemoization},
		{Workload: "tiny2", ICache: xscale8(), Scheme: api.SchemeWayPlacement,
			Adaptive: &api.AdaptivePolicySpec{
				IntervalInstrs: 20_000, StartSizeBytes: 1 << 10,
				MinSizeBytes: 1 << 10, MaxSizeBytes: 16 << 10,
				GrowThreshold: 0.95, AliasMissRate: 0.02,
			}},
	}
}

// TestBatchSuccess: a sync batch answers 200 with one result per
// request in order, and the wire stats are byte-for-byte the stats a
// local engine produces for the same cells — the lossless-JSON
// property wpbench's -server mode relies on for identical CSV.
func TestBatchSuccess(t *testing.T) {
	env := newEnv(t, nil)
	reqs := smallBatch()
	resp, err := env.client.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resp.Status != api.StatusDone || len(resp.Errors) != 0 {
		t.Fatalf("batch status %q, errors %v", resp.Status, resp.Errors)
	}
	if len(resp.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(resp.Results), len(reqs))
	}

	specs, err := api.ToSpecs(reqs)
	if err != nil {
		t.Fatal(err)
	}
	local := engine.New(testProvider(t, nil))
	want, err := local.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range resp.Results {
		if rr.Key != specs[i].Key() {
			t.Errorf("result %d key %q, want %q", i, rr.Key, specs[i].Key())
		}
		if !reflect.DeepEqual(rr.Stats, want[i].Stats) {
			t.Errorf("result %d stats diverge from the local engine:\n got %+v\nwant %+v",
				i, rr.Stats, want[i].Stats)
		}
	}
	// The adaptive cell carries its resize trace over the wire.
	ad := resp.Results[3]
	if len(ad.AreaChanges) == 0 {
		t.Error("adaptive cell answered without a resize trace")
	} else if ad.AreaChanges[0].SizeBytes != 1<<10 {
		t.Errorf("resize trace starts at %d bytes, want policy start size", ad.AreaChanges[0].SizeBytes)
	}
}

// TestMalformedRequests: bad JSON, bad version, empty batches and
// field-level validation failures all answer 400 with actionable
// bodies.
func TestMalformedRequests(t *testing.T) {
	env := newEnv(t, nil)
	post := func(body string) (*http.Response, api.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eresp api.ErrorResponse
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		json.Unmarshal(data, &eresp)
		return resp, eresp
	}

	resp, _ := post("{not json")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON answered %d, want 400", resp.StatusCode)
	}
	resp, eresp := post(`{"api_version":"v9","requests":[{"workload":"tiny1"}]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eresp.Error, "v9") {
		t.Errorf("unsupported version answered %d %q", resp.StatusCode, eresp.Error)
	}
	resp, _ = post(`{"requests":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch answered %d, want 400", resp.StatusCode)
	}

	// Field-level errors carry the JSON path of each bad field.
	bad := api.BatchRequest{Requests: []api.RunRequest{
		{Workload: "tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
		{Workload: "", ICache: api.CacheGeometry{SizeBytes: 3000, Ways: 8, LineBytes: 32}, Scheme: "warp"},
	}}
	body, _ := json.Marshal(bad)
	resp, eresp = post(string(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch answered %d, want 400", resp.StatusCode)
	}
	if len(eresp.Fields) == 0 {
		t.Fatal("400 body carries no field errors")
	}
	for _, f := range eresp.Fields {
		if !strings.HasPrefix(f.Field, "requests[1].") {
			t.Errorf("field error %q not anchored at requests[1]", f.Field)
		}
	}
}

// TestQueueFullAnswers429: with one queue slot held open by a blocked
// batch, the next POST is refused with 429 and a Retry-After header
// instead of queueing unboundedly.
func TestQueueFullAnswers429(t *testing.T) {
	env := newEnv(t, func(o *serve.Options) { o.QueueDepth = 1 })

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(api.BatchRequest{Requests: []api.RunRequest{
			{Workload: "block:tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
		}})
		close(started)
		http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	}()
	<-started
	waitInflight(t, env, 1)

	body, _ := json.Marshal(api.BatchRequest{Requests: smallBatch()})
	resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var eresp api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil || eresp.RetryAfterSeconds <= 0 {
		t.Errorf("429 body %+v lacks retry_after_seconds (%v)", eresp, err)
	}

	env.gate <- struct{}{} // release the parked batch
	wg.Wait()
}

// TestOversizedBatchAnswers429: a batch beyond MaxBatchCells is
// refused up front — bounded memory, not an attempted run.
func TestOversizedBatchAnswers429(t *testing.T) {
	env := newEnv(t, func(o *serve.Options) { o.MaxBatchCells = 3 })
	_, err := env.client.Run(context.Background(), smallBatch())
	if err == nil || !strings.Contains(err.Error(), "exceeds the server limit") {
		t.Fatalf("oversized batch: %v, want a limit rejection", err)
	}
}

// TestShutdownDrainsInflight: Shutdown refuses new work immediately
// but blocks until the in-flight async batch completes — and that
// batch completes successfully, not cancelled.
func TestShutdownDrainsInflight(t *testing.T) {
	env := newEnv(t, nil)
	body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: []api.RunRequest{
		{Workload: "block:tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
	}})
	resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || accepted.JobID == "" {
		t.Fatalf("async submit answered %d %+v", resp.StatusCode, accepted)
	}
	waitInflight(t, env, 1)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- env.srv.Shutdown(ctx)
	}()

	// Draining: new batches bounce with 429 while the old one runs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, _ := json.Marshal(api.BatchRequest{Requests: smallBatch()})
		r2, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still accepts work (%d)", r2.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before the in-flight batch finished: %v", err)
	default:
	}

	env.gate <- struct{}{} // let the parked batch finish
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The drained job completed with real results.
	jr, err := http.Get(env.http.URL + "/v1/runs/" + accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var final api.BatchResponse
	if err := json.NewDecoder(jr.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone || len(final.Results) != 1 || final.Results[0].Stats == nil {
		t.Fatalf("drained job ended as %q with %d results", final.Status, len(final.Results))
	}
}

// TestAsyncJobLifecycle: async submission answers a deterministic job
// id, identical re-submission attaches to the same job, and polling
// converges on the full result set.
func TestAsyncJobLifecycle(t *testing.T) {
	env := newEnv(t, nil)
	reqs := smallBatch()
	submit := func() (*http.Response, api.BatchResponse) {
		t.Helper()
		body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: reqs})
		resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var br api.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, br
	}
	hr, first := submit()
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit answered %d", hr.StatusCode)
	}
	if want := api.BatchKey(reqs); first.JobID != want {
		t.Errorf("job id %q, want deterministic %q", first.JobID, want)
	}
	_, second := submit()
	if second.JobID != first.JobID {
		t.Errorf("identical resubmission got a new job: %q vs %q", second.JobID, first.JobID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := http.Get(env.http.URL + "/v1/runs/" + first.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var br api.BatchResponse
		err = json.NewDecoder(jr.Body).Decode(&br)
		jr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if br.Status == api.StatusDone {
			if len(br.Results) != len(reqs) {
				t.Fatalf("job finished with %d results for %d requests", len(br.Results), len(reqs))
			}
			break
		}
		if br.Status == api.StatusFailed {
			t.Fatalf("job failed: %+v", br.Errors)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", br.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	jr, err := http.Get(env.http.URL + "/v1/runs/job-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job answered %d, want 404", jr.StatusCode)
	}
}

// TestSharedCacheAcrossClients: three concurrent clients submit the
// same figure-style batch; the shared engine simulates each unique
// cell once and the cache-hit ratio rises batch over batch. Run under
// -race this also hammers the server's concurrent paths.
func TestSharedCacheAcrossClients(t *testing.T) {
	env := newEnv(t, nil)
	reqs := smallBatch()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := serve.NewClient(env.http.URL)
			resp, err := c.Run(context.Background(), reqs)
			if err == nil && resp.Status != api.StatusDone {
				err = fmt.Errorf("status %q: %+v", resp.Status, resp.Errors)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if misses := env.eng.Misses(); misses != uint64(len(reqs)) {
		t.Errorf("3 identical client batches cost %d simulations, want %d (one per unique cell)",
			misses, len(reqs))
	}
	hitsAfterStorm := env.eng.Hits()
	if hitsAfterStorm == 0 {
		t.Error("no cache hits across identical concurrent batches")
	}

	// One more identical batch from a fourth client: all hits.
	resp, err := serve.NewClient(env.http.URL).Run(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range resp.Results {
		if !rr.CacheHit {
			t.Errorf("result %d of a fully warm batch not marked as a cache hit", i)
		}
	}
	if env.eng.Hits() <= hitsAfterStorm {
		t.Error("cache hit count did not rise across identical client batches")
	}
}

// TestRemoteRunnerContract: the Runner adapter preserves the engine's
// error shape (MultiError with nil slots) and refuses unexpressible
// per-batch options.
func TestRemoteRunnerContract(t *testing.T) {
	env := newEnv(t, nil)
	runner := serve.NewRemoteRunner(env.client)
	specs := []engine.RunSpec{
		{Workload: "tiny1", ICache: cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}, Scheme: energy.Baseline},
		{Workload: "nosuch", ICache: cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}, Scheme: energy.Baseline},
	}
	res, err := runner.Run(context.Background(), specs)
	if err == nil {
		t.Fatal("batch with a failing cell returned no error")
	}
	merr, ok := err.(*engine.MultiError)
	if !ok {
		t.Fatalf("error is %T, want *engine.MultiError", err)
	}
	if len(merr.Errors) != 1 || !strings.Contains(merr.Errors[0].Error(), "nosuch") {
		t.Errorf("unexpected cell errors: %v", merr.Errors)
	}
	if res[0] == nil || res[0].Stats == nil {
		t.Error("healthy cell lost its result")
	}
	if res[1] != nil {
		t.Error("failed cell has a non-nil result slot")
	}

	if _, err := runner.Run(context.Background(), specs[:1], engine.WithWorkers(2)); err == nil {
		t.Error("per-batch options accepted over the wire")
	}
}

// TestMetricsEndpoint: /metrics re-exposes the shared registry —
// engine instruments and the per-key run-cache hit series keyed by
// canonical cell keys.
func TestMetricsEndpoint(t *testing.T) {
	env := newEnv(t, nil)
	reqs := smallBatch()[:1]
	for i := 0; i < 2; i++ { // second batch hits the cache
		if _, err := env.client.Run(context.Background(), reqs); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(env.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	out := string(data)
	key := reqs[0].Key()
	for _, want := range []string{
		"engine_cells_total",
		"serve_batches_total 2",
		serve.MetricCellHits + `{key="` + key + `"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	hr, err := http.Get(env.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["api_version"] != api.Version {
		t.Errorf("healthz = %+v", health)
	}
}

// TestCoalesceField: the optional batch "coalesce" field selects
// server-side single-pass grouping per batch. Results must be
// identical either way (the v1 contract is unchanged), group ids
// appear only on coalesced fresh cells, and omitting the field means
// grouping is on.
func TestCoalesceField(t *testing.T) {
	reqs := smallBatch()
	post := func(env *testEnv, coalesce *bool) *api.BatchResponse {
		t.Helper()
		body, err := json.Marshal(api.BatchRequest{Requests: reqs, Coalesce: coalesce})
		if err != nil {
			t.Fatal(err)
		}
		httpResp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(httpResp.Body)
			t.Fatalf("status %d: %s", httpResp.StatusCode, b)
		}
		var resp api.BatchResponse
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusDone || len(resp.Errors) != 0 {
			t.Fatalf("batch ended %q: %+v", resp.Status, resp.Errors)
		}
		return &resp
	}

	off := false
	envDefault := newEnv(t, nil)
	envOff := newEnv(t, nil)
	got := post(envDefault, nil)
	want := post(envOff, &off)

	for i := range reqs {
		if !reflect.DeepEqual(got.Results[i].Stats, want.Results[i].Stats) {
			t.Errorf("cell %d: coalesced stats diverge from uncoalesced", i)
		}
		if got.Results[i].GroupID == "" {
			t.Errorf("cell %d: coalesced result missing group_id", i)
		}
		if want.Results[i].GroupID != "" {
			t.Errorf("cell %d: uncoalesced result carries group_id %q", i, want.Results[i].GroupID)
		}
	}
	// smallBatch is tiny1 {baseline, wayplace} + tiny2 {waymem,
	// adaptive}: one multi-cell group per workload binary pair that
	// shares a stream — tiny1's two cells use different binaries, so
	// only tiny2's waymem does not group either. Count what actually
	// coalesced instead of hard-coding.
	if envDefault.eng.CoalescedCells() != 0 && envDefault.eng.Groups() == 0 {
		t.Error("coalesced cells without groups")
	}
	if envOff.eng.Groups() != 0 {
		t.Errorf("uncoalesced engine formed %d groups", envOff.eng.Groups())
	}
}

// TestAsyncSubmitRaceNeverOrphans202: regression for the
// publish-before-acquire race. With the queue pinned full, concurrent
// identical async submissions used to interleave so that one attached
// (202) to a job the other deleted on its failed acquire — an id that
// never ran and 404'd on every poll. The invariant now: any 202 ever
// answered names a job that stays pollable. Run under -race.
func TestAsyncSubmitRaceNeverOrphans202(t *testing.T) {
	env := newEnv(t, func(o *serve.Options) { o.QueueDepth = 1 })

	// Pin the only queue slot with a blocked sync batch.
	var pinned sync.WaitGroup
	pinned.Add(1)
	go func() {
		defer pinned.Done()
		body, _ := json.Marshal(api.BatchRequest{Requests: []api.RunRequest{
			{Workload: "block:tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
		}})
		http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	}()
	waitInflight(t, env, 1)

	// Hammer the handler in-process — the race window between
	// publishing a job and deleting it on a failed acquire is well
	// under a microsecond, so the rounds must be tight loops, not
	// real HTTP exchanges.
	handler := env.srv.Handler()
	var mu sync.Mutex
	var acceptedIDs []string
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for round := 0; round < rounds; round++ {
		// A fresh job id per round: the WP size varies.
		reqs := []api.RunRequest{{Workload: "tiny2", ICache: xscale8(),
			Scheme: api.SchemeWayPlacement, WPSizeBytes: uint32(round+1) << 7}}
		body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: reqs})
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code == http.StatusAccepted {
					var br api.BatchResponse
					json.NewDecoder(rec.Body).Decode(&br)
					mu.Lock()
					acceptedIDs = append(acceptedIDs, br.JobID)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}

	t.Logf("accepted 202s: %d", len(acceptedIDs))
	// Every 202 the server handed out must still resolve. (An
	// orphaned job can never run — the queue stayed pinned — so a
	// pre-fix deletion is still visible here as a 404.)
	for _, id := range acceptedIDs {
		req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+id, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code == http.StatusNotFound {
			t.Fatalf("job %s was 202-accepted but polls as 404 — orphaned by the submit race", id)
		}
	}

	env.gate <- struct{}{} // release the pinned batch
	pinned.Wait()
}

// TestDuplicateAsyncSubmissionsRace: concurrent identical async
// submissions converge on one job — same deterministic id for every
// 202, exactly one accepted batch doing the work — and the job
// completes with full results. Run under -race.
func TestDuplicateAsyncSubmissionsRace(t *testing.T) {
	env := newEnv(t, nil)
	reqs := smallBatch()
	body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: reqs})

	ids := make([]string, 6)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submission %d answered %d, want 202", i, resp.StatusCode)
				return
			}
			var br api.BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Error(err)
				return
			}
			ids[i] = br.JobID
		}(i)
	}
	wg.Wait()

	want := api.BatchKey(reqs)
	for i, id := range ids {
		if id != want {
			t.Fatalf("submission %d got job id %q, want the shared deterministic %q", i, id, want)
		}
	}
	if got := env.reg.Dump().Counters[serve.MetricBatches]; got != 1 {
		t.Errorf("%d batches accepted for 6 identical submissions, want 1 (the rest attach)", got)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := http.Get(env.http.URL + "/v1/runs/" + want)
		if err != nil {
			t.Fatal(err)
		}
		var br api.BatchResponse
		err = json.NewDecoder(jr.Body).Decode(&br)
		jr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if br.Status == api.StatusDone {
			if len(br.Results) != len(reqs) {
				t.Fatalf("deduplicated job finished with %d results, want %d", len(br.Results), len(reqs))
			}
			return
		}
		if br.Status == api.StatusFailed || time.Now().After(deadline) {
			t.Fatalf("deduplicated job ended %q", br.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFinishedJobEvicted: a completed async job is evicted after
// Options.JobTTL, so a long-lived daemon does not hold one
// BatchResponse per distinct batch forever; post-eviction polls 404.
func TestFinishedJobEvicted(t *testing.T) {
	env := newEnv(t, func(o *serve.Options) { o.JobTTL = 50 * time.Millisecond })
	body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: []api.RunRequest{
		{Workload: "tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
	}})
	resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted api.BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}

	sawDone := false
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, err := http.Get(env.http.URL + "/v1/runs/" + accepted.JobID)
		if err != nil {
			t.Fatal(err)
		}
		var br api.BatchResponse
		json.NewDecoder(jr.Body).Decode(&br)
		jr.Body.Close()
		if jr.StatusCode == http.StatusNotFound {
			if !sawDone {
				t.Fatal("job vanished before ever reporting done")
			}
			return // evicted after completing: the fix works
		}
		if br.Status == api.StatusDone {
			sawDone = true
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never evicted — Server.jobs leaks one BatchResponse per batch")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsyncBurstCannotStarveSync: async batches may hold at most
// AsyncSlots queue slots, so with the async side saturated a sync
// caller still gets the reserved slot — and the surplus async
// submission bounces with a retryable 429.
func TestAsyncBurstCannotStarveSync(t *testing.T) {
	env := newEnv(t, func(o *serve.Options) { o.QueueDepth = 3 }) // AsyncSlots defaults to 2

	for _, wl := range []string{"block:tiny1", "block:tiny2"} {
		body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: []api.RunRequest{
			{Workload: wl, ICache: xscale8(), Scheme: api.SchemeBaseline},
		}})
		resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit of %s answered %d, want 202", wl, resp.StatusCode)
		}
	}
	waitInflight(t, env, 2)

	// The async side is at its cap: a further async batch is refused
	// even though a queue slot is free...
	body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: []api.RunRequest{
		{Workload: "tiny2", ICache: xscale8(), Scheme: api.SchemeWayMemoization},
	}})
	resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("async burst past the cap answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("fairness 429 lacks Retry-After (it is retryable)")
	}

	// ...while a sync caller takes the reserved slot and completes.
	syncResp, err := env.client.Run(context.Background(), []api.RunRequest{
		{Workload: "tiny1", ICache: xscale8(), Scheme: api.SchemeBaseline},
	})
	if err != nil {
		t.Fatalf("sync batch starved while async burst held the queue: %v", err)
	}
	if syncResp.Status != api.StatusDone {
		t.Fatalf("sync batch ended %q", syncResp.Status)
	}

	env.gate <- struct{}{}
	env.gate <- struct{}{}
}

// TestLargeBatchStreams: a MaxBatchCells-sized sync batch (4096
// cells) answers as one chunked JSON object that a v1 client decodes
// unchanged — the server streamed it result by result instead of
// buffering a multi-megabyte body.
func TestLargeBatchStreams(t *testing.T) {
	env := newEnv(t, nil)
	unique := smallBatch()
	reqs := make([]api.RunRequest, 4096)
	for i := range reqs {
		reqs[i] = unique[i%len(unique)]
	}
	body, _ := json.Marshal(api.BatchRequest{Requests: reqs})
	resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("4096-cell batch answered %d: %.300s", resp.StatusCode, b)
	}
	if resp.ContentLength != -1 {
		t.Errorf("response carries Content-Length %d — the body was buffered, not streamed", resp.ContentLength)
	}

	var br api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("streamed body does not decode as one JSON object: %v", err)
	}
	if br.Status != api.StatusDone || len(br.Errors) != 0 {
		t.Fatalf("batch ended %q: %v", br.Status, br.Errors)
	}
	if len(br.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(br.Results), len(reqs))
	}
	specs, err := api.ToSpecs(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range br.Results {
		if rr.Key != specs[i].Key() || rr.Stats == nil {
			t.Fatalf("result %d: key %q stats %v", i, rr.Key, rr.Stats != nil)
		}
	}
	// 4096 requested cells collapse onto the unique specs: the repeats
	// come from the run cache, not 4096 simulations.
	if misses := env.eng.Misses(); misses != uint64(len(unique)) {
		t.Errorf("4096-cell batch cost %d simulations, want %d", misses, len(unique))
	}
}

// TestShutdownRacesAsyncSubmissions: Shutdown racing a burst of async
// submissions must drain cleanly — every job that was 202-accepted is
// final (done, never lost) once Shutdown returns. Run under -race.
func TestShutdownRacesAsyncSubmissions(t *testing.T) {
	env := newEnv(t, nil)

	var wg sync.WaitGroup
	accepted := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct areas, each a multiple of the 1 KB I-TLB page so
			// every accepted job can succeed.
			reqs := []api.RunRequest{{Workload: "tiny1", ICache: xscale8(),
				Scheme: api.SchemeWayPlacement, WPSizeBytes: uint32(i+1) << 10}}
			body, _ := json.Marshal(api.BatchRequest{Async: true, Requests: reqs})
			resp, err := http.Post(env.http.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var br api.BatchResponse
			json.NewDecoder(resp.Body).Decode(&br)
			if resp.StatusCode == http.StatusAccepted {
				accepted <- br.JobID
			}
		}(i)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownErr <- env.srv.Shutdown(ctx)
	}()

	wg.Wait()
	close(accepted)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown racing async submissions: %v", err)
	}
	for id := range accepted {
		jr, err := http.Get(env.http.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var br api.BatchResponse
		err = json.NewDecoder(jr.Body).Decode(&br)
		jr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if br.Status != api.StatusDone || len(br.Results) != 1 || br.Results[0].Stats == nil {
			t.Errorf("accepted job %s ended %q after drain (results: %d)", id, br.Status, len(br.Results))
		}
	}
}
