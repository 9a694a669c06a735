package api

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wayplace/internal/engine"
	"wayplace/internal/obs"
)

// maxRequestBody bounds one POST /v1/runs body.
const maxRequestBody = 64 << 20

// Rejection is a request refused before any work starts: the HTTP
// status and the coded body to answer with.
type Rejection struct {
	Status int
	Body   ErrorResponse
}

// RequestTenant resolves the accounting tenant of r (ResolveTenant
// over its X-WP-Tenant header and peer address) and the tenant to
// echo: the name when the client sent one, "" for a derived default,
// which never reaches the wire. An invalid header is a 400.
func RequestTenant(r *http.Request) (Tenant, string, *Rejection) {
	t, explicit, err := ResolveTenant(r.Header.Get(TenantHeader), r.RemoteAddr)
	if err != nil {
		return "", "", &Rejection{http.StatusBadRequest, ErrorResponse{
			Error:  "invalid " + TenantHeader + " header",
			Code:   CodeInvalidRequest,
			Fields: []FieldError{{Field: TenantHeader, Message: err.Error()}},
		}}
	}
	if !explicit {
		return t, "", nil
	}
	return t, string(t), nil
}

// DecodeBatch is the one v1 request decoder: it reads a POST /v1/runs
// body and validates it into engine cells. Malformed JSON, an
// unsupported api_version, an empty batch and field errors are 400s;
// a batch over maxCells is a permanent 429 batch_too_large (the client
// must split the sweep). role names the answering daemon in messages
// ("server", "coordinator").
func DecodeBatch(w http.ResponseWriter, r *http.Request, maxCells int, role string) (*BatchRequest, []engine.RunSpec, *Rejection) {
	bad := func(resp ErrorResponse) (*BatchRequest, []engine.RunSpec, *Rejection) {
		return nil, nil, &Rejection{http.StatusBadRequest, resp}
	}
	var breq BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&breq); err != nil {
		return bad(ErrorResponse{Error: "malformed JSON: " + err.Error(), Code: CodeInvalidRequest})
	}
	if breq.APIVersion != "" && breq.APIVersion != Version {
		return bad(ErrorResponse{
			Error: fmt.Sprintf("api_version %q not supported (%s speaks %q)", breq.APIVersion, role, Version),
			Code:  CodeUnsupportedVersion,
		})
	}
	if len(breq.Requests) == 0 {
		return bad(ErrorResponse{
			Error:  "empty batch",
			Code:   CodeInvalidRequest,
			Fields: []FieldError{{Field: "requests", Message: "must contain at least one run request"}},
		})
	}
	if len(breq.Requests) > maxCells {
		// No Retry-After and retryable=false: resubmitting the same
		// batch can never succeed.
		return nil, nil, &Rejection{http.StatusTooManyRequests, ErrorResponse{
			Error: fmt.Sprintf("batch of %d cells exceeds the %s limit of %d; split the sweep",
				len(breq.Requests), role, maxCells),
			Code: CodeBatchTooLarge,
		}}
	}
	specs, err := ToSpecs(breq.Requests)
	if err != nil {
		resp := ErrorResponse{Error: "invalid batch", Code: CodeInvalidRequest}
		if verr, ok := err.(*ValidationError); ok {
			resp.Fields = verr.Fields
		} else {
			resp.Error = err.Error()
		}
		return bad(resp)
	}
	return &breq, specs, nil
}

// truncatedLogEvery spaces a Responder's log lines about truncated
// writes: clients that abort under load can truncate hundreds of
// answers a second, and one line per interval says as much.
const truncatedLogEvery = 10 * time.Second

// Responder writes v1 answers. Once the status line is out a failed
// body write cannot change it: the client sees a truncated answer. A
// Responder counts every such write and logs the first, then at most
// one line per truncatedLogEvery, which says how many there were since
// the line before it.
type Responder struct {
	role      string
	truncated *obs.Counter
	now       func() time.Time

	mu     sync.Mutex
	logged time.Time // the last line's time; zero before the first
	since  uint64    // truncated writes not logged since then
}

// NewResponder returns a Responder that counts truncated writes on
// truncated (nil counts nothing) and prefixes its log lines with role.
func NewResponder(role string, truncated *obs.Counter) *Responder {
	return &Responder{role: role, truncated: truncated, now: time.Now}
}

func (rw *Responder) failed(err error) {
	if err == nil {
		return
	}
	rw.truncated.Inc()
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rw.since++
	if now := rw.now(); rw.logged.IsZero() || now.Sub(rw.logged) >= truncatedLogEvery {
		log.Printf("%s: truncated answers (body write failed after headers) since the last report: %d, the latest: %v", rw.role, rw.since, err)
		rw.logged, rw.since = now, 0
	}
}

// JSON answers small payloads (errors, healthz) in one encode.
func (rw *Responder) JSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	rw.failed(json.NewEncoder(w).Encode(v))
}

// Batch streams a BatchResponse result by result
// (EncodeBatchResponse), so a grid-sized answer never materialises a
// second body-sized buffer; the bytes equal a one-shot encode.
func (rw *Responder) Batch(w http.ResponseWriter, status int, resp *BatchResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	rw.failed(EncodeBatchResponse(w, resp))
}

// Busy answers a retryable 429 (queue_full or over_quota; the
// permanent batch_too_large never comes through here): the
// Retry-After header in whole seconds, rounded up, and a coded body
// that mirrors it for clients that only read JSON.
func (rw *Responder) Busy(w http.ResponseWriter, msg, code string, retry time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
	rw.JSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error:             msg,
		Code:              code,
		Retryable:         true,
		RetryAfterSeconds: retry.Seconds(),
	})
}

// WithTenant echoes an explicit tenant on a possibly shared response.
// Shared job snapshots are never mutated: the echo rides a shallow
// copy, whose result slices stay shared.
func (r *BatchResponse) WithTenant(tenant string) *BatchResponse {
	if tenant == "" || r.Tenant == tenant {
		return r
	}
	cp := *r
	cp.Tenant = tenant
	return &cp
}

// MetricsHandler serves GET /metrics: reg in Prometheus text, or JSON
// with ?format=json; 404 when no registry is installed.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "no metrics registry installed", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}
