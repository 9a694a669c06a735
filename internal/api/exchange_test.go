package api_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wayplace/internal/api"
)

// TestExchangeVerdicts is the table over every answer class the one
// client exchange distinguishes: decoded 2xx, the 429 verdict (coded
// first, Retry-After sniffing for pre-code servers), and status errors
// with their decoded body.
func TestExchangeVerdicts(t *testing.T) {
	done := func(w http.ResponseWriter) {
		json.NewEncoder(w).Encode(api.BatchResponse{APIVersion: api.Version, JobID: "job-1", Status: api.StatusDone})
	}
	answer := func(status int, retryAfter string, body any) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			switch b := body.(type) {
			case string:
				w.Write([]byte(b))
			default:
				json.NewEncoder(w).Encode(b)
			}
		}
	}
	future := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	cases := []struct {
		name   string
		answer func(http.ResponseWriter)
		check  func(t *testing.T, resp *api.BatchResponse, err error)
	}{
		{"200", done, func(t *testing.T, resp *api.BatchResponse, err error) {
			if err != nil || resp.JobID != "job-1" || resp.Status != api.StatusDone {
				t.Fatalf("got %+v, %v", resp, err)
			}
		}},
		{"202", answer(http.StatusAccepted, "", api.BatchResponse{APIVersion: api.Version, JobID: "job-2", Status: api.StatusQueued}),
			func(t *testing.T, resp *api.BatchResponse, err error) {
				if err != nil || resp.JobID != "job-2" || resp.Status != api.StatusQueued {
					t.Fatalf("got %+v, %v", resp, err)
				}
			}},
		{"wrong api_version", answer(http.StatusOK, "", api.BatchResponse{APIVersion: "v9"}),
			func(t *testing.T, resp *api.BatchResponse, err error) {
				if err == nil || !strings.Contains(err.Error(), `"v9"`) {
					t.Fatalf("got %+v, %v; want a version mismatch", resp, err)
				}
			}},
		{"coded 429 retryable", answer(http.StatusTooManyRequests, "3",
			api.ErrorResponse{Error: "full", Code: api.CodeQueueFull, Retryable: true}),
			wantBusy("full", api.CodeQueueFull, 3*time.Second, false)},
		{"coded 429 permanent despite header", answer(http.StatusTooManyRequests, "1",
			api.ErrorResponse{Error: "too big", Code: api.CodeBatchTooLarge}),
			wantBusy("too big", api.CodeBatchTooLarge, time.Second, true)},
		{"pre-code 429 delta-seconds", answer(http.StatusTooManyRequests, "2", api.ErrorResponse{Error: "busy"}),
			wantBusy("busy", "", 2*time.Second, false)},
		{"pre-code 429 HTTP-date", answer(http.StatusTooManyRequests, future, api.ErrorResponse{Error: "busy"}),
			wantBusy("busy", "", -1, false)},
		{"pre-code 429 without Retry-After", answer(http.StatusTooManyRequests, "", "not json"),
			wantBusy("server busy", "", 0, true)},
		{"400 with fields", answer(http.StatusBadRequest, "", api.ErrorResponse{
			Error: "invalid batch", Code: api.CodeInvalidRequest,
			Fields: []api.FieldError{{Field: "requests[0].workload", Message: "must be set"}},
		}), func(t *testing.T, _ *api.BatchResponse, err error) {
			se := wantStatus(t, err, http.StatusBadRequest, api.CodeInvalidRequest)
			var verr *api.ValidationError
			if !errors.As(err, &verr) || len(verr.Fields) != 1 || verr.Fields[0].Field != "requests[0].workload" {
				t.Fatalf("errors.As ValidationError: %+v from %v", verr, se)
			}
		}},
		{"404", answer(http.StatusNotFound, "", api.ErrorResponse{Error: `unknown job "x"`, Code: api.CodeJobUnknown}),
			func(t *testing.T, _ *api.BatchResponse, err error) {
				wantStatus(t, err, http.StatusNotFound, api.CodeJobUnknown)
				var verr *api.ValidationError
				if errors.As(err, &verr) {
					t.Fatal("a 404 without fields unwrapped to a ValidationError")
				}
			}},
		{"5xx with a large body", answer(http.StatusInternalServerError, "", strings.Repeat("x", 3<<20)),
			func(t *testing.T, _ *api.BatchResponse, err error) {
				wantStatus(t, err, http.StatusInternalServerError, "")
				if n := len(err.Error()); n > 600 {
					t.Fatalf("error message is %d bytes; the body head must be bounded", n)
				}
			}},
		{"truncated JSON", answer(http.StatusOK, "", `{"api_version":"v1","status":"do`),
			func(t *testing.T, resp *api.BatchResponse, err error) {
				if err == nil || !strings.Contains(err.Error(), "decoding 200 body") {
					t.Fatalf("got %+v, %v; want a decode error", resp, err)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tenant string
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tenant = r.Header.Get(api.TenantHeader)
				c.answer(w)
			}))
			defer srv.Close()
			resp, err := api.Exchange(context.Background(), srv.Client(), http.MethodPost, srv.URL+"/v1/runs", "team-a", []byte(`{}`))
			if tenant != "team-a" {
				t.Errorf("tenant header %q, want team-a", tenant)
			}
			c.check(t, resp, err)
		})
	}
}

// wantBusy checks the 429 verdict; retry < 0 asks only for a positive
// hint (an HTTP-date is measured from now).
func wantBusy(msg, code string, retry time.Duration, permanent bool) func(*testing.T, *api.BatchResponse, error) {
	return func(t *testing.T, resp *api.BatchResponse, err error) {
		t.Helper()
		var busy *api.BusyError
		if !errors.As(err, &busy) {
			t.Fatalf("got %+v, %v; want *api.BusyError", resp, err)
		}
		if busy.Msg != msg || busy.Code != code || busy.Permanent != permanent {
			t.Errorf("verdict %+v, want msg %q code %q permanent %v", busy, msg, code, permanent)
		}
		if retry >= 0 && busy.RetryAfter != retry || retry < 0 && busy.RetryAfter <= 0 {
			t.Errorf("RetryAfter %v, want %v", busy.RetryAfter, retry)
		}
	}
}

func wantStatus(t *testing.T, err error, status int, code string) *api.StatusError {
	t.Helper()
	var se *api.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *api.StatusError", err)
	}
	if se.Status != status || se.Response.Code != code {
		t.Fatalf("status %d code %q, want %d %q", se.Status, se.Response.Code, status, code)
	}
	return se
}
