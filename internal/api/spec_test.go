package api_test

import (
	"errors"
	"reflect"
	"testing"

	"wayplace/internal/api"
	"wayplace/internal/engine"
)

// wirePath is the JSON path each engine.Violation field is reported
// under.
var wirePath = map[string]string{
	"ICache":                  "icache",
	"WPSize":                  "wp_size_bytes",
	"Style":                   "style",
	"OracleHint":              "oracle_hint",
	"NoSameLine":              "no_same_line",
	"Adaptive":                "adaptive",
	"Adaptive.IntervalInstrs": "adaptive.interval_instrs",
	"Adaptive.StartSize":      "adaptive.start_size_bytes",
}

// TestValidateIsTheEngineRule: over every combination of the fields
// the cell rules read, a well-formed request validates exactly when
// its engine cell passes engine.RunSpec.Validate — the api adds no
// cell rule of its own — each engine violation comes back under its
// JSON path with its message, and on valid requests Spec and
// RequestOf round-trip.
func TestValidateIsTheEngineRule(t *testing.T) {
	geometries := []api.CacheGeometry{
		xscale(),
		{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, Policy: "lru"},
		{SizeBytes: 3000, Ways: 32, LineBytes: 32},
	}
	adaptives := []*api.AdaptivePolicySpec{
		nil,
		{IntervalInstrs: 1000, StartSizeBytes: 1024},
		{StartSizeBytes: 1024, MaxSizeBytes: 8192},
		{IntervalInstrs: 1000, GrowThreshold: 0.9},
	}
	n := 0
	for _, scheme := range []string{api.SchemeBaseline, api.SchemeWayMemoization, api.SchemeWayPlacement} {
		for _, style := range []string{"", api.StyleRAMTag} {
			for _, geo := range geometries {
				for _, wp := range []uint32{0, 4096} {
					for _, ad := range adaptives {
						for _, flags := range []int{0, 1, 2, 3} {
							req := api.RunRequest{
								Workload: "sha", ICache: geo, Scheme: scheme, WPSizeBytes: wp, Style: style,
								OracleHint: flags&1 != 0, NoSameLine: flags&2 != 0, Adaptive: ad,
							}
							checkAgainstEngine(t, req)
							n++
						}
					}
				}
			}
		}
	}
	if n != 3*2*3*2*4*4 {
		t.Fatalf("checked %d requests", n)
	}
}

func checkAgainstEngine(t *testing.T, req api.RunRequest) {
	t.Helper()
	scheme, err := api.ParseScheme(req.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	style, err := api.ParseStyle(req.Style)
	if err != nil {
		t.Fatal(err)
	}
	icfg, err := req.ICache.Config()
	if err != nil {
		t.Fatal(err)
	}
	cell := engine.RunSpec{
		Workload: req.Workload, ICache: icfg, Scheme: scheme, WPSize: req.WPSizeBytes,
		Style: style, OracleHint: req.OracleHint, NoSameLine: req.NoSameLine,
	}
	if req.Adaptive != nil {
		cell.Adaptive = req.Adaptive.EngineSpec()
	}
	cellErr := cell.Validate()
	reqErr := req.Validate()
	if (cellErr == nil) != (reqErr == nil) {
		t.Fatalf("%+v: api says %v, engine says %v", req, reqErr, cellErr)
	}
	if cellErr != nil {
		var verr *api.ValidationError
		if !errors.As(reqErr, &verr) {
			t.Fatalf("api error %T, want *api.ValidationError", reqErr)
		}
		got := make(map[api.FieldError]bool, len(verr.Fields))
		for _, f := range verr.Fields {
			got[f] = true
		}
		violations := cellErr.(*engine.SpecError).Violations
		for _, v := range violations {
			if want := (api.FieldError{Field: wirePath[v.Field], Message: v.Message}); !got[want] {
				t.Errorf("%+v: engine violation %v not reported as %v in %v", req, v, want, verr.Fields)
			}
		}
		if len(verr.Fields) != len(violations) {
			t.Errorf("%+v: api reports %v, engine %v", req, verr.Fields, violations)
		}
		return
	}
	spec, err := req.Spec()
	if err != nil || spec != cell {
		t.Fatalf("%+v: Spec() = %v, %v; want %v", req, spec, err, cell)
	}
	if back := api.RequestOf(spec); !reflect.DeepEqual(back, req) {
		t.Errorf("RequestOf(Spec(%+v)) = %+v", req, back)
	}
}

// TestEmptyAdaptiveObject: an adaptive object with every field zero
// names no policy; the engine cannot see it (a zero AdaptiveSpec is a
// static cell), so the api refuses it on the wire.
func TestEmptyAdaptiveObject(t *testing.T) {
	req := api.RunRequest{Workload: "sha", ICache: xscale(), Scheme: api.SchemeWayPlacement,
		Adaptive: &api.AdaptivePolicySpec{}}
	var verr *api.ValidationError
	if err := req.Validate(); !errors.As(err, &verr) {
		t.Fatalf("Validate() = %v, want a *api.ValidationError", err)
	}
	want := []api.FieldError{
		{Field: "adaptive.interval_instrs", Message: "must be positive"},
		{Field: "adaptive.start_size_bytes", Message: "must be positive"},
	}
	if !reflect.DeepEqual(verr.Fields, want) {
		t.Errorf("fields %v, want %v", verr.Fields, want)
	}
}
