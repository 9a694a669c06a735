package engine

import (
	"sync"

	"wayplace/internal/sim"
)

// Fetch-trace reuse. Every cell of one fetch stream — a workload's
// binary under one producer-side configuration — sees the same
// instruction stream and the same CPU, D-cache, D-TLB, reference I-TLB
// and memory outcome. The first single-pass group of a stream records
// it (sim.RecordMulti); later groups of the stream on the same engine,
// typically cells arriving in later batches, replay the recording
// (sim.ReplayMulti) instead of re-executing the program. Results are
// bit-identical either way (internal/check proves it), so reuse is
// always on and has no knob. sim caps each recording; traceTableBytes
// bounds an engine's trace table, and inserting past it evicts the
// oldest traces first.
const traceTableBytes = 32 << 20

// traceKey names one fetch stream: the group's RunSpec.Stream (its
// workload and binary) plus the producer-side half of the base
// configuration. An engine memoises each workload's programs for its
// lifetime, so the stream names the program (sim.ReplayMulti rejects a
// trace of any other).
type traceKey struct {
	stream string
	cfg    sim.StreamConfig
}

// traceTable is an engine's bounded store of recorded fetch traces.
type traceTable struct {
	mu     sync.Mutex
	byKey  map[traceKey]*sim.FetchTrace
	order  []traceKey // insertion order, oldest first
	nbytes int
}

func (t *traceTable) get(k traceKey) *sim.FetchTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[k]
}

// put stores tr under k unless a trace of the stream is already
// present (two groups of one stream may record concurrently), evicts
// the oldest traces while the table is over its bound, and returns the
// table's size in bytes.
func (t *traceTable) put(k traceKey, tr *sim.FetchTrace) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byKey == nil {
		t.byKey = make(map[traceKey]*sim.FetchTrace)
	}
	if _, ok := t.byKey[k]; ok {
		return t.nbytes
	}
	t.byKey[k] = tr
	t.order = append(t.order, k)
	t.nbytes += tr.Bytes()
	for t.nbytes > traceTableBytes {
		old := t.order[0]
		t.order = t.order[1:]
		t.nbytes -= t.byKey[old].Bytes()
		delete(t.byKey, old)
	}
	return t.nbytes
}
