package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
	"wayplace/internal/sim"
)

// NewTransport returns an http.Transport tuned for sustained fan-out
// against one (or a few) wpserved hosts: keep-alives on and an idle
// pool of perHost connections per host, so a coordinator fanning a
// batch stream out to its backends — or a wpload fleet hammering one
// daemon — reuses warm connections instead of opening (and
// TIME_WAIT-parking) a fresh ephemeral port per request. perHost
// should be at least the caller's request concurrency toward a single
// host; values <= 0 pick 256. (net/http's DefaultTransport caps idle
// connections at 2 per host, which under a 200-client fan-out closes
// and reopens almost every connection.)
func NewTransport(perHost int) *http.Transport {
	if perHost <= 0 {
		perHost = 256
	}
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        2 * perHost,
		MaxIdleConnsPerHost: perHost,
		IdleConnTimeout:     90 * time.Second,
	}
}

// defaultClient backs every Client whose HTTP field is nil. One
// shared tuned transport (rather than http.DefaultClient) means all
// default clients in a process pool their connections.
var defaultClient = &http.Client{Transport: NewTransport(0)}

// BusyError is the typed form of a 429 the client could not retry
// away: either the retry budget ran out while the server kept
// answering busy-with-Retry-After, or the rejection was permanent (no
// Retry-After — an oversized batch that can never succeed as-is).
// Callers that can reroute work — the fleet coordinator failing over
// to another backend, or propagating the backoff hint upstream — use
// errors.As to tell the two apart.
type BusyError struct {
	// Msg is the server's error message.
	Msg string
	// Code is the machine-readable error code from the server's
	// ErrorResponse (api.CodeQueueFull, api.CodeOverQuota,
	// api.CodeBatchTooLarge, ...). Empty when talking to a pre-code
	// server.
	Code string
	// RetryAfter is the last backoff hint received; zero when the
	// rejection was permanent.
	RetryAfter time.Duration
	// Permanent means the rejection cannot be retried away:
	// retryable=false in the coded schema, or — against a pre-code
	// server — no Retry-After accompanied the 429 (an oversized batch
	// that can never succeed as-is).
	Permanent bool
}

func (e *BusyError) Error() string { return fmt.Sprintf("serve: %s (429)", e.Msg) }

// Client talks the api schema to a wpserved instance — or to a
// wpcoordd coordinator, which speaks the identical v1 surface.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8100".
	BaseURL string
	// HTTP is the transport; nil means a process-wide client over a
	// keep-alive pooled transport (NewTransport).
	HTTP *http.Client
	// MaxRetries bounds how many 429 answers are retried (honouring
	// Retry-After) before giving up. Default 4; negative disables
	// retrying.
	MaxRetries int
	// Tenant, when non-empty, is sent as the X-WP-Tenant header on
	// every request, so the server accounts and schedules this
	// client's work under that identity instead of its remote address.
	Tenant api.Tenant
}

// NewClient returns a client for the given server root.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, MaxRetries: 4}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultClient
}

// Run executes one synchronous batch, retrying on 429 with the
// server's Retry-After hint. A response with failed cells is returned
// as-is — callers inspect BatchResponse.Errors.
func (c *Client) Run(ctx context.Context, reqs []api.RunRequest) (*api.BatchResponse, error) {
	body, err := json.Marshal(api.BatchRequest{APIVersion: api.Version, Requests: reqs})
	if err != nil {
		return nil, err
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 4
	}
	for attempt := 0; ; attempt++ {
		resp, retryAfter, retryable, err := c.post(ctx, bytes.NewReader(body))
		if err == nil {
			return resp, nil
		}
		if !retryable || attempt >= retries {
			return nil, err
		}
		if retryAfter > 0 {
			select {
			case <-time.After(retryAfter):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else if err := ctx.Err(); err != nil {
			// Retry-After: 0 means retry immediately — but never spin
			// past a cancelled context.
			return nil, err
		}
	}
}

// post performs one POST /v1/runs exchange. A 429 answer reports
// whether (and after how long) it may be retried.
func (c *Client) post(ctx context.Context, body io.Reader) (*api.BatchResponse, time.Duration, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/runs", body)
	if err != nil {
		return nil, 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		req.Header.Set(api.TenantHeader, string(c.Tenant))
	}
	httpResp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, 0, false, err
	}
	// Drain the residual body (trailing newline, chunk terminator) on
	// every status so the transport sees EOF and pools the connection:
	// a 429 retry must not pay for a new one while backpressure is live.
	defer func() {
		io.Copy(io.Discard, httpResp.Body)
		httpResp.Body.Close()
	}()
	if httpResp.StatusCode == http.StatusTooManyRequests {
		msg := "server busy"
		var eresp api.ErrorResponse
		if json.NewDecoder(httpResp.Body).Decode(&eresp) == nil && eresp.Error != "" {
			msg = eresp.Error
		}
		retry, hinted := api.ParseRetryAfter(httpResp.Header.Get("Retry-After"), time.Now())
		// A coded answer states retryability outright; against a
		// pre-code server, fall back to sniffing the Retry-After hint —
		// in either RFC 9110 form, delta-seconds or HTTP-date, where
		// "0" is a valid hint meaning retry immediately. A 429 without
		// one (oversized batch) is a permanent rejection.
		ok := hinted
		if eresp.Code != "" {
			ok = eresp.Retryable
		}
		return nil, retry, ok, &BusyError{Msg: msg, Code: eresp.Code, RetryAfter: retry, Permanent: !ok}
	}
	if httpResp.StatusCode != http.StatusOK {
		var eresp api.ErrorResponse
		if json.NewDecoder(httpResp.Body).Decode(&eresp) == nil && eresp.Error != "" {
			if len(eresp.Fields) > 0 {
				return nil, 0, false, fmt.Errorf("serve: %s (%d): %w", eresp.Error, httpResp.StatusCode,
					&api.ValidationError{Fields: eresp.Fields})
			}
			return nil, 0, false, fmt.Errorf("serve: %s (%d)", eresp.Error, httpResp.StatusCode)
		}
		return nil, 0, false, fmt.Errorf("serve: unexpected status %d", httpResp.StatusCode)
	}
	var resp api.BatchResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, 0, false, fmt.Errorf("serve: decoding response: %w", err)
	}
	if resp.APIVersion != api.Version {
		return nil, 0, false, fmt.Errorf("serve: server speaks api %q, client %q", resp.APIVersion, api.Version)
	}
	return &resp, 0, false, nil
}

// Health fetches GET /healthz.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	httpResp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: healthz status %d", httpResp.StatusCode)
	}
	var h map[string]any
	err = json.NewDecoder(httpResp.Body).Decode(&h)
	io.Copy(io.Discard, httpResp.Body)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// RemoteRunner adapts a Client to the experiment.Runner seam: a suite
// with SetRunner(NewRemoteRunner(client)) executes its standard grids
// on the shared server engine, so figure sweeps from many processes
// hit one run cache. The aggregation code above the seam is
// unchanged, which is what keeps CSV output byte-identical between
// local and served runs.
type RemoteRunner struct {
	Client *Client
}

// NewRemoteRunner wraps a client as a batch runner.
func NewRemoteRunner(c *Client) *RemoteRunner { return &RemoteRunner{Client: c} }

// Run ships the specs as one api batch and maps the answer back onto
// engine results, preserving input order and the engine's error
// contract: per-cell failures come back as a *engine.MultiError with
// nil result slots.
func (r *RemoteRunner) Run(ctx context.Context, specs []engine.RunSpec, opts ...engine.Option) ([]*engine.Result, error) {
	if len(opts) > 0 {
		return nil, fmt.Errorf("serve: per-batch engine options are not expressible over the wire; run this batch on a local engine")
	}
	reqs := make([]api.RunRequest, len(specs))
	for i, s := range specs {
		reqs[i] = api.RequestOf(s)
	}
	resp, err := r.Client.Run(ctx, reqs)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("serve: server answered %d results for %d cells", len(resp.Results), len(specs))
	}
	failed := make(map[int]string, len(resp.Errors))
	for _, f := range resp.Errors {
		failed[f.Index] = f.Error
	}
	results := make([]*engine.Result, len(specs))
	var merr engine.MultiError
	for i, rr := range resp.Results {
		if msg, ok := failed[i]; ok || rr.Stats == nil {
			if msg == "" {
				msg = "cell failed"
			}
			merr.Errors = append(merr.Errors, &engine.CellError{Spec: specs[i], Err: fmt.Errorf("%s", msg)})
			continue
		}
		results[i] = &engine.Result{
			Spec:        specs[i],
			Stats:       rr.Stats,
			AreaChanges: areaChangesOf(rr.AreaChanges),
			Wall:        time.Duration(rr.WallSeconds * float64(time.Second)),
			CacheHit:    rr.CacheHit,
			GroupID:     rr.GroupID,
		}
	}
	if len(merr.Errors) > 0 {
		return results, &merr
	}
	return results, nil
}

func areaChangesOf(wire []api.AreaChange) []sim.AreaChange {
	if len(wire) == 0 {
		return nil
	}
	out := make([]sim.AreaChange, len(wire))
	for i, ch := range wire {
		out[i] = sim.AreaChange{AtInstr: ch.AtInstr, Size: ch.SizeBytes}
	}
	return out
}
