package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestScenarioTable: each mode flag selects its row of the table, the
// smoke preset fills only the flags the user left alone, and two
// modes at once are a usage error.
func TestScenarioTable(t *testing.T) {
	for _, c := range []struct {
		args []string
		row  int
	}{
		{nil, 0},
		{[]string{"-smoke"}, 0},
		{[]string{"-fleet", "3"}, 1},
		{[]string{"-fleet-smoke"}, 1},
		{[]string{"-fleet", "4", "-fleet-smoke"}, 1},
		{[]string{"-tenants", "3"}, 2},
		{[]string{"-tenants-smoke"}, 2},
		{[]string{"-crash"}, 3},
		{[]string{"-fleet", "0"}, 0},
	} {
		cfg, err := parseFlags(c.args)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if cfg.row != &scenarios[c.row] {
			t.Errorf("%v selected row %+v, want row %d", c.args, *cfg.row, c.row)
		}
		// The tier-1 gates must not rewrite the committed snapshot.
		if cfg.snapshot != "" {
			t.Errorf("%v writes a snapshot to %q; only an explicit -snapshot may", c.args, cfg.snapshot)
		}
	}

	cfg, err := parseFlags([]string{"-smoke", "-snapshot", "BENCH_wpload.json"})
	if err != nil || cfg.snapshot != "BENCH_wpload.json" {
		t.Errorf("-smoke -snapshot BENCH_wpload.json: snapshot %q, err %v", cfg.snapshot, err)
	}

	cfg, err = parseFlags([]string{"-smoke", "-clients", "500"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opt.Clients != 500 || cfg.opt.Duration != 2*time.Second {
		t.Errorf("-smoke -clients 500: %d clients for %v, want 500 for 2s", cfg.opt.Clients, cfg.opt.Duration)
	}
	if cfg.slo == nil || cfg.slo.HTTPP50Max != 250*time.Millisecond || cfg.slo.Max429Rate != 0.95 {
		t.Errorf("-smoke SLO %+v, want the smoke preset with a 250ms p50", cfg.slo)
	}

	cfg, err = parseFlags([]string{"-fleet-smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.slo == nil || cfg.slo.HTTPP50Max != 500*time.Millisecond || cfg.opt.Clients != 200 {
		t.Errorf("-fleet-smoke: SLO %+v, %d clients; want a 500ms p50 and 200 clients", cfg.slo, cfg.opt.Clients)
	}

	cfg, err = parseFlags([]string{"-fleet", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.slo != nil || cfg.opt.Clients != 256 {
		t.Errorf("-fleet 3 got the smoke preset: SLO %+v, %d clients", cfg.slo, cfg.opt.Clients)
	}

	cfg, err = parseFlags([]string{"-async", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opt.AsyncFraction != 0 {
		t.Errorf("-async 0 resolved to %v", cfg.opt.AsyncFraction)
	}

	for _, c := range []struct {
		args []string
		rule string
	}{
		{[]string{"-fleet", "3", "-tenants", "3"}, "mutually exclusive"},
		{[]string{"-smoke", "-crash"}, "mutually exclusive"},
		{[]string{"-fleet-smoke", "-tenants-smoke"}, "mutually exclusive"},
		{[]string{"-addr", "http://127.0.0.1:1", "-fleet-smoke"}, "-addr"},
	} {
		_, err := parseFlags(c.args)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("%v: got %v, want a usage error", c.args, err)
		} else if !strings.Contains(err.Error(), c.rule) {
			t.Errorf("%v: error %q, want the %q rule", c.args, err, c.rule)
		}
	}
}
