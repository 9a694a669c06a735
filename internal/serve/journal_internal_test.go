// White-box tests for the durability plumbing: journal replay on
// boot, the fsync-before-202 refusal path, and the eviction-timer
// lifecycle Shutdown must tear down.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/obs"
	"wayplace/internal/store"
)

func testBatchRequest(workload string) *api.BatchRequest {
	return &api.BatchRequest{
		APIVersion: api.Version,
		Async:      true,
		Requests: []api.RunRequest{{
			Workload: workload,
			ICache:   api.CacheGeometry{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32},
			Scheme:   api.SchemeBaseline,
		}},
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Regression: eviction used an untracked time.AfterFunc, so finished
// jobs' timers outlived Shutdown and fired into a dead server. Timers
// must be tracked, stopped on Shutdown, and unarmable afterwards.
func TestEvictionTimersStoppedOnShutdown(t *testing.T) {
	s := newBareServer(t, nil)
	j := &job{id: "job-x", done: make(chan struct{})}
	s.jobs.Store("job-x", j)
	s.jobs.EvictAfter("job-x", j, 30*time.Millisecond)

	if armed := s.jobs.Armed(); armed != 1 {
		t.Fatalf("%d timers tracked after scheduling, want 1", armed)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if left := s.jobs.Armed(); left != 0 {
		t.Errorf("%d timers still tracked after Shutdown, want 0", left)
	}

	// The stopped timer must not fire into the dead server...
	time.Sleep(60 * time.Millisecond)
	if _, ok := s.jobs.Load("job-x"); !ok {
		t.Error("a stopped eviction timer still fired and deleted the job")
	}
	// ...and no new timer may be armed after Shutdown.
	s.jobs.EvictAfter("job-x", j, time.Millisecond)
	if rearmed := s.jobs.Armed(); rearmed != 0 {
		t.Errorf("%d timers armed after Shutdown, want 0", rearmed)
	}
}

// Re-arming the same job's eviction (a replayed job finishing twice,
// a duplicate submission) replaces the old timer instead of leaking
// it, and a fired timer removes itself from the tracking map.
func TestEvictionTimerRearmAndSelfRemoval(t *testing.T) {
	s := newBareServer(t, nil)
	j := &job{id: "job-y", done: make(chan struct{})}
	s.jobs.Store("job-y", j)
	s.jobs.EvictAfter("job-y", j, time.Hour)
	s.jobs.EvictAfter("job-y", j, 10*time.Millisecond)

	if armed := s.jobs.Armed(); armed != 1 {
		t.Fatalf("%d timers tracked after re-arm, want 1", armed)
	}
	eventually(t, "eviction to fire and self-remove", func() bool {
		if _, ok := s.jobs.Load("job-y"); ok {
			return false
		}
		return s.jobs.Armed() == 0
	})
}

// Boot replay: an accepted-but-unfinished job resumes and its 202 id
// polls to completion; a done job past its TTL is dropped and
// compacted out of the journal.
func TestJournalReplayOnBoot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	jnl, err := store.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Accept("job-live", testBatchRequest("w-live")); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Accept("job-expired", testBatchRequest("w-expired")); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Done("job-expired"); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	// Let job-expired age past the TTL the server will boot with.
	ttl := 100 * time.Millisecond
	time.Sleep(ttl + 50*time.Millisecond)

	jnl, err = store.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	reg := obs.NewRegistry()
	eng := newBareServer(t, nil).opt.Engine // provider that fails every workload
	s, err := New(Options{Engine: eng, Registry: reg, Journal: jnl, JobTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := s.jobs.Load("job-expired"); ok {
		t.Error("done job past its TTL was re-registered")
	}
	v, ok := s.jobs.Load("job-live")
	if !ok {
		t.Fatal("accepted-but-unfinished job was not replayed; its 202 id is orphaned")
	}
	select {
	case <-v.done:
	case <-time.After(5 * time.Second):
		t.Fatal("replayed job never finished")
	}
	// The bare engine's provider fails, so the replayed job completes
	// as failed — what matters here is the lifecycle: it finished, was
	// counted, got a done mark, and the expired job is gone for good.
	eventually(t, "replay counter", func() bool {
		return reg.Counter(MetricReplayedJobs).Value() == 1
	})
	eventually(t, "done mark for the replayed job", func() bool {
		data, err := os.ReadFile(path)
		return err == nil && strings.Contains(string(data), `"op":"done","job":"job-live"`)
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "job-expired") {
		t.Error("compaction left the expired job in the journal")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// The fsync-before-202 invariant has a refusal side: when the accept
// record cannot reach disk, the server must answer 500 and release
// the queue slot rather than hand out a job id a crash would orphan.
func TestAsyncRefusedWhenJournalFails(t *testing.T) {
	jnl, err := store.OpenJournal(filepath.Join(t.TempDir(), "journal.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := newBareServer(t, nil).opt.Engine
	s, err := New(Options{Engine: eng, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close() // every append now fails

	body, _ := json.Marshal(testBatchRequest("w"))
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("async submit with a dead journal answered %d, want 500", w.Code)
	}
	if _, ok := s.jobs.Load(api.BatchKey(testBatchRequest("w").Requests)); ok {
		t.Error("a non-durable job id was published anyway")
	}
	// The slot must have been released: a sync submit still goes
	// through (sync batches are not journaled).
	sync := testBatchRequest("w")
	sync.Async = false
	body, _ = json.Marshal(sync)
	req = httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code == http.StatusTooManyRequests {
		t.Error("queue slot leaked by the refused async submit: sync batch got 429")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
