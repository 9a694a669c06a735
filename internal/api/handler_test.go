package api_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"wayplace/internal/api"
)

// FuzzBatchRequest drives arbitrary bytes through the one v1 request
// decoder. Every body either gets a coded 400 or 429, or decodes to
// specs whose canonical key survives a wire round trip unchanged. The
// second seed's "coalesce" is a field v1 no longer defines; unknown
// fields are ignored, so old clients that still send it are served.
func FuzzBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"requests":[{"workload":"sha","icache":{"size_bytes":32768,"ways":32,"line_bytes":32},"scheme":"wayplace","wp_size_bytes":16384}]}`,
		`{"api_version":"v1","async":true,"coalesce":false,"requests":[{"workload":"crc","icache":{"size_bytes":8192,"ways":8,"line_bytes":32,"policy":"lru"},"scheme":"waymem","style":"ram-tag"}]}`,
		`{"requests":[{"workload":"w","icache":{"size_bytes":32768,"ways":32,"line_bytes":32},"scheme":"wayplace","adaptive":{"interval_instrs":1000,"start_size_bytes":4096}}]}`,
		`{"api_version":"v9","requests":[]}`,
		`{"requests":[]}`,
		`{"requests":[{},{},{},{},{}]}`,
		`{"requests":[{"workload":"","scheme":"warp","icache":{"size_bytes":5,"ways":3,"line_bytes":7}}]}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		breq, specs, rej := api.DecodeBatch(w, r, 4, "server")
		if rej != nil {
			if rej.Status != http.StatusBadRequest && rej.Status != http.StatusTooManyRequests {
				t.Fatalf("rejection status %d", rej.Status)
			}
			if rej.Body.Code == "" || rej.Body.Error == "" || rej.Body.Retryable {
				t.Fatalf("rejection %+v is not a coded permanent error", rej.Body)
			}
			return
		}
		if len(specs) != len(breq.Requests) || len(specs) == 0 || len(specs) > 4 {
			t.Fatalf("%d specs for %d requests", len(specs), len(breq.Requests))
		}
		for i, spec := range specs {
			data, err := json.Marshal(api.RequestOf(spec))
			if err != nil {
				t.Fatal(err)
			}
			var back api.RunRequest
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			again, err := back.Spec()
			if err != nil {
				t.Fatalf("cell %d: re-encoded request no longer validates: %v\n%s", i, err, data)
			}
			if again.Key() != spec.Key() || breq.Requests[i].Key() != spec.Key() {
				t.Fatalf("cell %d: key %q does not survive the round trip (%q)", i, spec.Key(), again.Key())
			}
		}
	})
}
