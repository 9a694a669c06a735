package api

import (
	"testing"
	"time"
)

type testJob struct{ status string }

func (j *testJob) Snapshot() *BatchResponse {
	return &BatchResponse{APIVersion: Version, Status: j.status}
}

// TestStaleEvictionSparesReplacement: a failed job's TTL fires just as
// an identical resubmission displaces it, so Stop on its timer comes
// too late and the callback runs after the replacement is published.
// The stale callback must delete only the job it was armed for — the
// replacement's 202 id stays pollable, its own timer stays armed.
func TestStaleEvictionSparesReplacement(t *testing.T) {
	tbl := NewJobTable[*testJob](time.Hour)
	failed := &testJob{status: StatusFailed}
	tbl.Store("job-1", failed)
	tbl.Evict("job-1", failed)

	if _, ok := tbl.Attach("job-1"); ok {
		t.Fatal("a failed job was attached to instead of displaced")
	}
	if _, ok := tbl.Load("job-1"); ok {
		t.Fatal("the failed job survived displacement")
	}
	replacement := &testJob{status: StatusDone}
	if _, loaded := tbl.LoadOrStore("job-1", replacement); loaded {
		t.Fatal("displaced id still occupied")
	}
	tbl.Evict("job-1", replacement)

	tbl.evict("job-1", failed) // the stale timer's callback, late

	if got, ok := tbl.Load("job-1"); !ok || got != replacement {
		t.Fatal("the stale eviction deleted the replacement job: its 202 id is orphaned")
	}
	if n := tbl.Armed(); n != 1 {
		t.Fatalf("%d timers armed, want the replacement's 1", n)
	}
	if snap, ok := tbl.Attach("job-1"); !ok || snap.Status != StatusDone {
		t.Fatalf("Attach to the live replacement: %+v, %v", snap, ok)
	}
	tbl.evict("job-1", replacement) // its own timer still evicts it
	if _, ok := tbl.Load("job-1"); ok || tbl.Armed() != 0 {
		t.Fatal("the replacement's own eviction did not remove it")
	}
	tbl.Stop()
}
