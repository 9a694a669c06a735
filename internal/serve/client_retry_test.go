package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/serve"
)

// retryServer answers 429 with the given Retry-After value until
// `after` requests have landed, then serves a minimal done batch.
type retryServer struct {
	retryAfter func(attempt int) string
	after      int
	seen       int
}

func (rs *retryServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rs.seen++
	if rs.seen <= rs.after {
		if v := rs.retryAfter(rs.seen); v != "" {
			w.Header().Set("Retry-After", v)
		}
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "busy"})
		return
	}
	json.NewEncoder(w).Encode(api.BatchResponse{
		APIVersion: api.Version,
		Status:     api.StatusDone,
	})
}

// Retry-After: 0 is a valid hint — retry immediately — not a
// permanent rejection. Before the fix the client treated it like an
// absent header and gave up on the first 429.
func TestClientRetriesOnRetryAfterZero(t *testing.T) {
	rs := &retryServer{retryAfter: func(int) string { return "0" }, after: 2}
	srv := httptest.NewServer(rs)
	defer srv.Close()

	start := time.Now()
	resp, err := serve.NewClient(srv.URL).Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("Run after Retry-After: 0: %v", err)
	}
	if resp.Status != api.StatusDone {
		t.Fatalf("status %q, want done", resp.Status)
	}
	if rs.seen != 3 {
		t.Fatalf("server saw %d requests, want 3 (two immediate retries)", rs.seen)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("immediate retries took %v — client slept on a zero hint", wall)
	}
}

// The HTTP-date form of Retry-After (RFC 9110 §10.2.3) must be
// honoured like delta-seconds. A date in the past means retry
// immediately.
func TestClientRetriesOnRetryAfterHTTPDate(t *testing.T) {
	rs := &retryServer{
		retryAfter: func(int) string {
			return time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
		},
		after: 1,
	}
	srv := httptest.NewServer(rs)
	defer srv.Close()

	resp, err := serve.NewClient(srv.URL).Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("Run after HTTP-date Retry-After: %v", err)
	}
	if resp.Status != api.StatusDone {
		t.Fatalf("status %q, want done", resp.Status)
	}
	if rs.seen != 2 {
		t.Fatalf("server saw %d requests, want 2", rs.seen)
	}
}

// A 429 with no Retry-After at all stays a permanent rejection: the
// server is saying resubmission cannot help (oversized batch).
func TestClientDoesNotRetryWithoutRetryAfter(t *testing.T) {
	rs := &retryServer{retryAfter: func(int) string { return "" }, after: 100}
	srv := httptest.NewServer(rs)
	defer srv.Close()

	if _, err := serve.NewClient(srv.URL).Run(context.Background(), nil); err == nil {
		t.Fatal("Run succeeded; want permanent 429 error")
	}
	if rs.seen != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retries without a hint)", rs.seen)
	}
}

// paddedHandler follows every answer with 64 KB of JSON whitespace, as
// a large error body would: a client that stops reading at the end of
// the JSON value leaves the body unfinished.
type paddedHandler struct{ http.Handler }

func (h paddedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.Handler.ServeHTTP(w, r)
	w.Write(bytes.Repeat([]byte(" "), 64<<10))
}

// A 429 answer must leave its keep-alive connection reusable: the
// retry travels on the same TCP connection. Before the fix the client
// drained the body only on 200, so a 429 retry dialled anew whenever
// the error body outgrew the decoder's first read.
func TestClientRetryReusesConnection(t *testing.T) {
	rs := &retryServer{retryAfter: func(int) string { return "0" }, after: 1}
	srv := httptest.NewUnstartedServer(paddedHandler{rs})
	var accepted atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := serve.NewClient(srv.URL)
	c.HTTP = &http.Client{Transport: &http.Transport{}}
	if _, err := c.Run(context.Background(), nil); err != nil {
		t.Fatalf("Run after one 429: %v", err)
	}
	if rs.seen != 2 {
		t.Fatalf("server saw %d requests, want 2 (one 429, one retry)", rs.seen)
	}
	if n := accepted.Load(); n != 1 {
		t.Errorf("server accepted %d connections, want 1: the 429 dropped its keep-alive connection", n)
	}
}
