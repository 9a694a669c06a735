package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxErrorBody bounds how much of an error answer a client reads, and
// how much unread residue it discards before closing any answer so the
// transport can pool the connection. A peer that sends more than this
// costs its connection, never unbounded client memory.
const maxErrorBody = 1 << 20

// BusyError is the verdict on a 429: the server's message and code,
// the Retry-After hint, and whether resubmitting can ever help.
// Callers that retry, or reroute, or propagate the hint upstream, use
// errors.As and decide on Permanent alone.
type BusyError struct {
	// Msg is the server's error message.
	Msg string
	// Code is the machine-readable error code (CodeQueueFull,
	// CodeOverQuota, CodeBatchTooLarge, ...). Empty when talking to a
	// pre-code server.
	Code string
	// RetryAfter is the backoff hint; zero when absent or "0".
	RetryAfter time.Duration
	// Permanent means the rejection cannot be retried away:
	// retryable=false in the coded schema, or — against a pre-code
	// server — no Retry-After accompanied the 429 (an oversized batch
	// that can never succeed as-is).
	Permanent bool
}

func (e *BusyError) Error() string { return fmt.Sprintf("serve: %s (429)", e.Msg) }

// StatusError is any other non-2xx answer: its status, the decoded
// ErrorResponse (zero when the body was not one), and a message naming
// the request line and the head of the body. A 400 carrying field
// errors unwraps to *ValidationError.
type StatusError struct {
	Status   int
	Response ErrorResponse
	msg      string
}

func (e *StatusError) Error() string { return e.msg }

func (e *StatusError) Unwrap() error {
	if len(e.Response.Fields) == 0 {
		return nil
	}
	return &ValidationError{Fields: e.Response.Fields}
}

// Exchange is the one client round trip of the v1 contract. It sends
// body (nil for a GET) to url under tenant (empty sends no header) and
// classifies the answer:
//
//   - 200 and 202 decode into a BatchResponse whose api_version must
//     be Version;
//   - 429 returns a *BusyError. A coded answer states its own
//     retryability; a pre-code server is read by its Retry-After,
//     where a hint in either RFC 9110 form means retryable and none
//     means permanent;
//   - any other status returns a *StatusError.
//
// Error bodies are read through a bound, and every answer is drained
// (bounded) before close, so error and retry paths keep their
// keep-alive connection.
func Exchange(ctx context.Context, hc *http.Client, method, url string, tenant Tenant, body []byte) (*BatchResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, string(tenant))
	}
	hresp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(hresp.Body, maxErrorBody))
		hresp.Body.Close()
	}()
	status := hresp.StatusCode
	if status == http.StatusOK || status == http.StatusAccepted {
		var resp BatchResponse
		if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
			return nil, fmt.Errorf("decoding %d body: %w", status, err)
		}
		if resp.APIVersion != Version {
			return nil, fmt.Errorf("server speaks api %q, client %q", resp.APIVersion, Version)
		}
		return &resp, nil
	}
	raw, _ := io.ReadAll(io.LimitReader(hresp.Body, maxErrorBody))
	var eresp ErrorResponse
	json.Unmarshal(raw, &eresp)
	if status == http.StatusTooManyRequests {
		retry, hinted := ParseRetryAfter(hresp.Header.Get("Retry-After"), time.Now())
		ok := hinted
		if eresp.Code != "" {
			ok = eresp.Retryable
		}
		msg := eresp.Error
		if msg == "" {
			msg = "server busy"
		}
		return nil, &BusyError{Msg: msg, Code: eresp.Code, RetryAfter: retry, Permanent: !ok}
	}
	head := raw[:min(len(raw), 512)]
	return nil, &StatusError{Status: status, Response: eresp,
		msg: fmt.Sprintf("%s %s: status %d: %s", method, req.URL.Path, status, bytes.TrimSpace(head))}
}
