package engine

import (
	"sync"

	"wayplace/internal/sim"
)

// Fetch-trace reuse. The layout pass only permutes basic blocks, so
// every binary of a workload retires the same instructions with the
// same CPU, D-cache, D-TLB and memory outcome; only the addresses, and
// so the reference I-TLB, differ. The engine therefore keeps one
// recording per workload and producer-side configuration: the first
// single-pass group of a workload, of either layout, executes the
// program and records it (sim.RecordMulti), and every later group of
// either layout replays that recording (sim.ReplayMulti), relocated
// onto its own binary when the other layout made it. Layouts outside
// the cell grid replay it too (Engine.Trace). Results are
// bit-identical every way (internal/check proves it), so reuse is
// always on and has no knob. sim caps each recording; traceTableBytes
// bounds an engine's trace table, and inserting past it evicts the
// oldest traces first. A replay that fails, a relocation refused
// between binaries of different units included, fails its group: the
// engine never falls back to executing live.
const traceTableBytes = 32 << 20

// traceKey names one workload's recording: the workload plus the
// producer-side half of the base configuration. An engine memoises
// each workload's programs for its lifetime, so the workload names the
// recorded program and every layout a replay may relocate it onto.
type traceKey struct {
	workload string
	cfg      sim.StreamConfig
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

// put stores tr under k unless a trace of the workload is already
// present (two groups of one workload may record concurrently), evicts
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
