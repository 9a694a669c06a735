package api_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"wayplace/internal/api"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
)

func xscale() api.CacheGeometry {
	return api.CacheGeometry{SizeBytes: 32 << 10, Ways: 32, LineBytes: 32}
}

func TestRequestSpecRoundTrip(t *testing.T) {
	reqs := []api.RunRequest{
		{Workload: "sha", ICache: xscale(), Scheme: api.SchemeBaseline},
		{Workload: "crc", ICache: xscale(), Scheme: api.SchemeWayMemoization},
		{Workload: "patricia", ICache: xscale(), Scheme: api.SchemeWayPlacement, WPSizeBytes: 16 << 10},
		{Workload: "sha", ICache: xscale(), Scheme: api.SchemeWayPlacement, WPSizeBytes: 16 << 10,
			Style: api.StyleRAMTag, OracleHint: true},
		{Workload: "sha", ICache: xscale(), Scheme: api.SchemeWayPlacement, WPSizeBytes: 16 << 10,
			NoSameLine: true},
		{Workload: "sha",
			ICache: api.CacheGeometry{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, Policy: "lru"},
			Scheme: api.SchemeWayPlacement,
			Adaptive: &api.AdaptivePolicySpec{
				IntervalInstrs: 50_000, StartSizeBytes: 1 << 10,
				MinSizeBytes: 1 << 10, MaxSizeBytes: 64 << 10,
				GrowThreshold: 0.95, AliasMissRate: 0.02,
			}},
	}
	for _, req := range reqs {
		spec, err := req.Spec()
		if err != nil {
			t.Fatalf("%+v: Spec: %v", req, err)
		}
		back := api.RequestOf(spec)
		spec2, err := back.Spec()
		if err != nil {
			t.Fatalf("RequestOf(%v).Spec: %v", spec, err)
		}
		if spec != spec2 {
			t.Errorf("round trip changed the cell: %v -> %v", spec, spec2)
		}
		if req.Key() != spec.Key() {
			t.Errorf("request key %q != spec key %q", req.Key(), spec.Key())
		}
	}
}

func TestRequestJSONRoundTrip(t *testing.T) {
	req := api.RunRequest{
		Workload: "sha", ICache: xscale(), Scheme: api.SchemeWayPlacement,
		Adaptive: &api.AdaptivePolicySpec{IntervalInstrs: 1000, StartSizeBytes: 1024},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back api.RunRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != req.Workload || back.Scheme != req.Scheme ||
		back.ICache != req.ICache || *back.Adaptive != *req.Adaptive {
		t.Errorf("JSON round trip changed the request: %+v -> %+v", req, back)
	}
	// Optional fields stay off the wire when unset.
	min, err := json.Marshal(api.RunRequest{Workload: "crc", ICache: xscale(), Scheme: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"wp_size_bytes", "adaptive", "policy"} {
		if strings.Contains(string(min), forbidden) {
			t.Errorf("minimal request leaks optional field %q: %s", forbidden, min)
		}
	}
}

func TestValidateFieldErrors(t *testing.T) {
	bad := api.RunRequest{
		Workload: "",
		ICache:   api.CacheGeometry{SizeBytes: 3000, Ways: 32, LineBytes: 32},
		Scheme:   "warp-speed",
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid request validated")
	}
	var verr *api.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T, want *api.ValidationError", err)
	}
	fields := map[string]bool{}
	for _, f := range verr.Fields {
		fields[f.Field] = true
	}
	for _, want := range []string{"workload", "scheme", "icache"} {
		if !fields[want] {
			t.Errorf("missing field error for %q in %v", want, verr.Fields)
		}
	}

	// Cross-field rules.
	for _, tc := range []struct {
		name  string
		req   api.RunRequest
		field string
	}{
		{"wp-size-on-baseline",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "baseline", WPSizeBytes: 1024},
			"wp_size_bytes"},
		{"adaptive-on-waymem",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "waymem",
				Adaptive: &api.AdaptivePolicySpec{IntervalInstrs: 1, StartSizeBytes: 1024}},
			"adaptive"},
		{"adaptive-without-interval",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "wayplace",
				Adaptive: &api.AdaptivePolicySpec{StartSizeBytes: 1024}},
			"adaptive.interval_instrs"},
		{"bad-style",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "baseline", Style: "nvram"},
			"style"},
		{"oracle-on-baseline",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "baseline", OracleHint: true},
			"oracle_hint"},
		{"nosameline-on-waymem",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "waymem", NoSameLine: true},
			"no_same_line"},
		{"adaptive-with-oracle",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "wayplace", OracleHint: true,
				Adaptive: &api.AdaptivePolicySpec{IntervalInstrs: 1, StartSizeBytes: 1024}},
			"oracle_hint"},
		{"adaptive-with-nosameline",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "wayplace", NoSameLine: true,
				Adaptive: &api.AdaptivePolicySpec{IntervalInstrs: 1, StartSizeBytes: 1024}},
			"no_same_line"},
		{"adaptive-with-ram-tag",
			api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: "wayplace", Style: "ram-tag",
				Adaptive: &api.AdaptivePolicySpec{IntervalInstrs: 1, StartSizeBytes: 1024}},
			"style"},
	} {
		err := tc.req.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.field)
		}
	}
}

func TestToSpecsIndexesErrors(t *testing.T) {
	reqs := []api.RunRequest{
		{Workload: "sha", ICache: xscale(), Scheme: "baseline"},
		{Workload: "", ICache: xscale(), Scheme: "nope"},
	}
	_, err := api.ToSpecs(reqs)
	if err == nil {
		t.Fatal("batch with an invalid request converted")
	}
	var verr *api.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T, want *api.ValidationError", err)
	}
	for _, f := range verr.Fields {
		if !strings.HasPrefix(f.Field, "requests[1].") {
			t.Errorf("field error %q not anchored at requests[1]", f.Field)
		}
	}

	specs, err := api.ToSpecs(reqs[:1])
	if err != nil {
		t.Fatal(err)
	}
	want := engine.RunSpec{
		Workload: "sha",
		ICache:   cache.Config{SizeBytes: 32 << 10, Ways: 32, LineBytes: 32, Policy: cache.RoundRobin},
		Scheme:   energy.Baseline,
	}
	if specs[0] != want {
		t.Errorf("ToSpecs = %v, want %v", specs[0], want)
	}
}

// TestBatchKeyDeterministic: identical batches map to identical job
// ids, different batches to different ids, and the id embeds no
// process state.
func TestBatchKeyDeterministic(t *testing.T) {
	a := []api.RunRequest{
		{Workload: "sha", ICache: xscale(), Scheme: "baseline"},
		{Workload: "sha", ICache: xscale(), Scheme: "wayplace", WPSizeBytes: 16 << 10},
	}
	b := append([]api.RunRequest(nil), a...)
	if api.BatchKey(a) != api.BatchKey(b) {
		t.Error("identical batches produced different job ids")
	}
	b[1].WPSizeBytes = 8 << 10
	if api.BatchKey(a) == api.BatchKey(b) {
		t.Error("different batches share a job id")
	}
	if !strings.HasPrefix(api.BatchKey(a), "job-") {
		t.Errorf("job id %q missing prefix", api.BatchKey(a))
	}
}
