package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef is one reported metric. The lists below are the
// benchmark's contract and must match BENCHMARK.json
// (TestMetricsMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd metrics are measured with tracing off and reported by every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cells_per_s", "cells/s", "higher"},
	{"cpu_ms_per_cell", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer metrics come from the traced run. A workload reports every
// one; a layer the workload does not exercise reads 0 (see README.md
// for which layer works on which workload).
var perLayer = []metricDef{
	// Untraced end-to-end figures that are not common to both
	// workloads, from the untraced phase of the traced run.
	{"client.lat_p50_ms", "ms", "lower"},
	{"client.lat_tail_ms", "ms", "lower"},
	{"client.goodput_per_s", "batches/s", "higher"},
	{"sim.minstr_per_s", "Minstr/s", "higher"},

	{"experiment.prepare_s", "s", "lower"},
	{"experiment.warmup_s", "s", "lower"},
	{"experiment.sections_s", "s", "lower"},
	{"experiment.profile_transfer_s", "s", "lower"},
	{"experiment.layout_ablation_s", "s", "lower"},

	{"bench.build_s", "s", "lower"},
	{"profile.run_s", "s", "lower"},
	{"layout.link_s", "s", "lower"},

	{"engine.cells", "count", "higher"},
	{"engine.hits", "count", "higher"},
	{"engine.misses", "count", "lower"},
	{"engine.hit_ratio", "ratio", "higher"},
	{"engine.groups", "count", "lower"},
	{"engine.coalesced_cells", "count", "higher"},
	{"engine.cells_per_group", "ratio", "higher"},
	{"engine.overhead_s", "s", "lower"},

	{"sim.produce_s", "s", "lower"},
	{"sim.runmulti_s", "s", "lower"},
	{"sim.consume_s", "s", "lower"},
	{"sim.instrs", "count", "lower"},
	{"sim.chunks", "count", "lower"},
	{"sim.models", "count", "lower"},
	{"sim.cell_wall_ms", "ms", "lower"},

	{"check.verify_us", "us", "lower"},
	{"check.cells_verified", "count", "higher"},

	{"api.decode_us", "us", "lower"},
	{"api.encode_us", "us", "lower"},
	{"api.request_bytes", "bytes", "lower"},
	{"api.response_bytes", "bytes", "lower"},

	{"serve.handler_p50_us", "us", "lower"},
	{"serve.handler_tail_us", "us", "lower"},
	{"serve.rtt_us", "us", "lower"},
	{"serve.net_us", "us", "lower"},
	{"serve.http_429", "count", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.conns_accepted", "count", "lower"},

	{"fleet.coord_handler_ms", "ms", "lower"},
	{"fleet.backend_rtt_ms", "ms", "lower"},
	{"fleet.overhead_ms", "ms", "lower"},
	{"fleet.subbatches_per_batch", "ratio", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"fleet.backend_429", "count", "lower"},
	{"fleet.simulated_cells", "count", "lower"},

	{"store.load_us", "us", "lower"},
	{"store.save_us", "us", "lower"},
	{"store.flush_s", "s", "lower"},
	{"store.objects", "count", "lower"},

	{"model.instrs", "count", "lower"},
	{"model.cycles", "count", "lower"},
	{"model.icache_fetches", "count", "lower"},
	{"model.icache_tag_comparisons", "count", "lower"},
	{"model.icache_misses", "count", "lower"},
	{"model.hint_extra_access", "count", "lower"},
	{"model.hint_missed_saving", "count", "lower"},
	{"model.icache_energy", "energy", "lower"},
	{"model.stats_digest", "hash", "lower"},

	{"host.alloc_bytes_per_cell", "bytes", "lower"},
	{"host.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// outcome is what one workload run produced: operation counts, the
// output checks that failed, and the measured metrics.
type outcome struct {
	Attempted int
	Failed    int
	Problems  []string
	E2E       map[string]float64
	Layers    map[string]float64
	// Detail is recorded with the result but is not a gated metric:
	// quantiles with their sample counts, pass counts, limits.
	Detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{E2E: map[string]float64{}, Layers: map[string]float64{}, Detail: map[string]any{}}
}

// fail records one failed output check (or failed operation). It
// counts against the run: the result is not correct.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// count adds a closed-loop phase's batches and failures to o.
func (o *outcome) count(ls loopStats) {
	o.Attempted += ls.batches
	o.Failed += ls.failed
	for _, p := range ls.problems {
		if len(o.Problems) < 20 {
			o.Problems = append(o.Problems, p)
		}
	}
}

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics returns the metrics a run reports: every end-to-end
// metric (trace off) or every per-layer metric (trace on). An
// end-to-end metric the workload did not produce is an error; a
// per-layer metric of a layer the workload never entered reads 0.
func selectMetrics(o *outcome, traced bool) (map[string]metricValue, error) {
	defs, vals := endToEnd, o.E2E
	if traced {
		defs, vals = perLayer, o.Layers
	}
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !traced {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload did not measure %s", strings.Join(missing, ", "))
	}
	return out, nil
}
