package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric and workload tables in
// this package in step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
		}
		return out
	}
	if fmt.Sprint(strip(spec.EndToEnd)) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from\n%v", strip(spec.EndToEnd), endToEnd)
	}
	if fmt.Sprint(strip(spec.PerLayer)) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from\n%v", strip(spec.PerLayer), perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for n := range workloads {
		ours = append(ours, n)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Errorf("workloads in BENCHMARK.json %v, in perfbench %v", names, ours)
	}
}

func TestSelectMetrics(t *testing.T) {
	o := newOutcome()
	o.E2E["setup_s"] = 1
	if _, err := selectMetrics(o, false); err == nil || !strings.Contains(err.Error(), "cells_per_s") {
		t.Fatalf("missing end-to-end metrics accepted: %v", err)
	}
	for _, d := range endToEnd {
		o.E2E[d.Name] = 2
	}
	m, err := selectMetrics(o, false)
	if err != nil || len(m) != len(endToEnd) || m["cells_per_s"] != (metricValue{2, "cells/s"}) {
		t.Fatalf("end-to-end metrics = %v, %v", m, err)
	}
	// A layer the workload never entered reads 0.
	o.Layers["engine.hits"] = 5
	m, err = selectMetrics(o, true)
	if err != nil || len(m) != len(perLayer) || m["engine.hits"].Value != 5 || m["fleet.failovers"].Value != 0 {
		t.Fatalf("per-layer metrics = %v, %v", m, err)
	}
}

func TestOutcomeCountsFailures(t *testing.T) {
	o := newOutcome()
	o.count(loopStats{batches: 10, failed: 2, problems: []string{"a", "b"}})
	o.fail("check %d", 1)
	if o.Attempted != 10 || o.Failed != 3 || len(o.Problems) != 3 {
		t.Fatalf("outcome = %+v", o)
	}
	for i := 0; i < 50; i++ {
		o.fail("more")
	}
	if o.Failed != 53 || len(o.Problems) != 20 {
		t.Errorf("after 50 more failures: %d failed, %d problems kept", o.Failed, len(o.Problems))
	}
}

// TestClosedLoopCountsFailuresAndRetries drives the client against a
// server that answers 429 once per batch, then alternately a correct
// and a wrong body, then 500.
func TestClosedLoopCountsFailuresAndRetries(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch i := n.Add(1); {
		case i%2 == 1 && i < 40:
			w.WriteHeader(http.StatusTooManyRequests)
		case i >= 40:
			http.Error(w, "boom", http.StatusInternalServerError)
		case i%4 == 0:
			w.Write([]byte("good"))
		default:
			w.Write([]byte("bad"))
		}
	}))
	defer srv.Close()
	good := &call{body: []byte("{}"), cells: 3, check: func(b []byte) error {
		if !bytes.Equal(b, []byte("good")) {
			return fmt.Errorf("got %q", b)
		}
		return nil
	}}
	ls := closedLoop(context.Background(), srv.URL, 1, func(c, i int) *call {
		if i >= 25 {
			return nil
		}
		return good
	})
	if ls.batches != 25 {
		t.Fatalf("%d batches attempted, want 25", ls.batches)
	}
	// Requests 1..39: odd ones 429 (retried), even ones alternate
	// good/bad; 40 onward 500.
	if ls.http429 != 20 || ls.retries != 20 {
		t.Errorf("429s %d, retries %d; want 20 and 20", ls.http429, ls.retries)
	}
	goodN := ls.batches - ls.failed
	if goodN != 9 || ls.cells != 27 || len(ls.lat) != 9 {
		t.Errorf("%d good batches, %d cells, %d latency samples; want 9, 27, 9", goodN, ls.cells, len(ls.lat))
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nosuch"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"--workload", "fleet-cold", "--trace", "2"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("bad --trace: exit %d, stdout %q", code, out.String())
	}
}

func TestPaperGridNeedsCommittedResults(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "paper-grid", "--seconds", "1", "--results", t.TempDir()}, &out, &errb)
	if code == 0 || out.Len() != 0 {
		t.Errorf("missing results: exit %d, stdout %q", code, out.String())
	}
}
