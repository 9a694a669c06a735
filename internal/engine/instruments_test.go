package engine

import (
	"testing"
	"time"

	"wayplace/internal/sim"
)

// TestNilInstrumentsAllocFree: with no observer, the engine's
// per-group bookkeeping — run-cache and trace-table counters, the
// trace-size gauge, the cell histogram and the trace lookup a replay
// starts with — performs no allocations.
func TestNilInstrumentsAllocFree(t *testing.T) {
	ins := newInstruments(nil)
	var table traceTable
	key := traceKey{stream: "w/placed", cfg: sim.StreamConfigOf(sim.Default())}
	stats := &sim.RunStats{Instrs: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = table.get(key)
		ins.traceHits.Inc()
		ins.traceMiss.Inc()
		ins.relocs.Inc()
		ins.traceSize.Set(1)
		ins.misses.Add(2)
		ins.inflight.Add(2)
		ins.groups.Inc()
		ins.coalesced.Add(2)
		ins.cells.Inc()
		ins.record(RunSpec{}, stats, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("nil-registry engine instruments allocate: %.1f allocs/op, want 0", allocs)
	}
}
