// White-box regression tests for serve-path bugs the wpload harness
// flushed out: they assert on internal state (the countHit memo, the
// write-error counter) that the black-box suite cannot see.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/obs"
)

func newBareServer(t *testing.T, reg *obs.Registry) *Server {
	t.Helper()
	eng := engine.New(func(ctx context.Context, name string) (*engine.Workload, error) {
		return nil, fmt.Errorf("no workloads in this test")
	})
	s, err := New(Options{Engine: eng, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCountHitMemoizesPastCardinalityCap: once the per-key series set
// is full, fresh keys must land on the one overflow counter without
// growing the registry. (The memo-aliasing mechanics — original-name
// memoization, single map read on repeat hits — are asserted
// white-box in obs's CounterVec tests; this guards the serve wiring.)
func TestCountHitMemoizesPastCardinalityCap(t *testing.T) {
	reg := obs.NewRegistry()
	s := newBareServer(t, reg)
	for i := 0; i < keyCardinalityCap; i++ {
		s.countHit(fmt.Sprintf("warm-%04d", i))
	}

	s.countHit("fresh-past-cap")
	s.countHit("fresh-past-cap")
	s.countHit("other-past-cap")

	overflow := s.hits.Overflow()
	if overflow == nil {
		t.Fatal("no overflow counter after past-the-cap hits")
	}
	if got := overflow.Value(); got != 3 {
		t.Errorf("overflow series counts %d hits, want 3", got)
	}

	// The registry grew exactly one series past the cap, no matter how
	// many distinct fresh keys hit it.
	series := 0
	for name := range reg.Dump().Counters {
		if strings.HasPrefix(name, MetricCellHits+"{") {
			series++
		}
	}
	if series != keyCardinalityCap+1 {
		t.Errorf("registry holds %d per-key series, want cap+1 = %d", series, keyCardinalityCap+1)
	}
}

// deadWriter is a ResponseWriter whose connection has gone away:
// every body write fails after headers are out.
type deadWriter struct{ header http.Header }

func (d *deadWriter) Header() http.Header {
	if d.header == nil {
		d.header = make(http.Header)
	}
	return d.header
}
func (d *deadWriter) WriteHeader(int) {}
func (d *deadWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("write tcp: broken pipe")
}

// TestWriteErrorsCounted: a body write failing after the 200 status
// line must bump serve_write_errors_total instead of vanishing — the
// only signal that a client received a truncated 200.
func TestWriteErrorsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	s := newBareServer(t, reg)
	writeErrs := reg.Counter(MetricWriteErrors)

	s.out.JSON(&deadWriter{}, http.StatusOK, map[string]string{"k": "v"})
	if got := writeErrs.Value(); got != 1 {
		t.Fatalf("out.JSON: write error counter = %d, want 1", got)
	}

	s.out.Batch(&deadWriter{}, http.StatusOK, &api.BatchResponse{
		APIVersion: api.Version, JobID: "job-x", Status: api.StatusDone,
	})
	if got := writeErrs.Value(); got != 2 {
		t.Fatalf("out.Batch: write error counter = %d, want 2", got)
	}
	if got := reg.Dump().Counters[MetricWriteErrors]; got != 2 {
		t.Fatalf("%s = %d on the registry, want 2", MetricWriteErrors, got)
	}
}

// TestAsyncSubmitRaceOrphanWindow reproduces the submit race
// deterministically: the server mutex is held so submitter A parks
// inside acquire() — which, pre-fix, was *after* it had published its
// job. A concurrent identical submitter B attached to that job and
// was told 202; when A resumed, failed its acquire and deleted the
// job, B held an id that 404'd forever. Post-fix nothing is published
// before the slot is secured, so no 202 can name a job that will
// never run.
func TestAsyncSubmitRaceOrphanWindow(t *testing.T) {
	reg := obs.NewRegistry()
	s := newBareServer(t, reg)
	s.sched.mu.Lock()
	s.sched.running = s.sched.capacity // pin the queue full: every acquire fails
	s.sched.mu.Unlock()
	handler := s.Handler()
	body := `{"async":true,"requests":[{"workload":"w","icache":{"size_bytes":8192,"ways":8,"line_bytes":32},"scheme":"baseline"}]}`
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		return rec
	}

	s.sched.mu.Lock() // parks both submitters at their acquire()
	resA := make(chan *httptest.ResponseRecorder, 1)
	resB := make(chan *httptest.ResponseRecorder, 1)
	go func() { resA <- post() }()
	time.Sleep(100 * time.Millisecond) // A reaches acquire (pre-fix: job already published)
	go func() { resB <- post() }()
	time.Sleep(100 * time.Millisecond) // B runs its dedup check against A's state
	s.sched.mu.Unlock()

	for _, rec := range []*httptest.ResponseRecorder{<-resA, <-resB} {
		if rec.Code != http.StatusAccepted {
			continue // 429 is the honest full-queue answer
		}
		var br api.BatchResponse
		if err := json.NewDecoder(rec.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		poll := httptest.NewRecorder()
		handler.ServeHTTP(poll, httptest.NewRequest(http.MethodGet, "/v1/runs/"+br.JobID, nil))
		if poll.Code == http.StatusNotFound {
			t.Fatalf("202-accepted job %q polls as 404 — orphaned by the publish-before-acquire race", br.JobID)
		}
	}
}
