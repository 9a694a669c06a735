package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/engine"
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

// clientRetry retries up to 4 429 answers on the server's
// Retry-After hint, as sent, before returning the *api.BusyError.
var clientRetry = api.RetryPolicy{Retries: 4}

// pollInterval spaces a Client's async job polls.
const pollInterval = 20 * time.Millisecond

// Client talks the api schema to a wpserved instance — or to a
// wpcoordd coordinator, which speaks the identical v1 surface. Every
// request goes through api.Exchange, so a 429 surfaces as
// *api.BusyError and any other refusal as *api.StatusError.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8100".
	BaseURL string
	// HTTP is the transport; nil means a process-wide client over a
	// keep-alive pooled transport (NewTransport).
	HTTP *http.Client
	// Tenant, when non-empty, is sent as the X-WP-Tenant header on
	// every request, so the server accounts and schedules this
	// client's work under that identity instead of its remote address.
	Tenant api.Tenant
}

// NewClient returns a client for the given server root.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
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
	return c.post(ctx, api.BatchRequest{APIVersion: api.Version, Requests: reqs})
}

// Submit queues reqs as one async batch, retrying on 429 like Run, and
// returns the 202 answer carrying the job id to Poll.
func (c *Client) Submit(ctx context.Context, reqs []api.RunRequest) (*api.BatchResponse, error) {
	resp, err := c.post(ctx, api.BatchRequest{APIVersion: api.Version, Requests: reqs, Async: true})
	if err == nil && resp.JobID == "" {
		return nil, fmt.Errorf("serve: async submit answered without a job id")
	}
	return resp, err
}

// Poll follows the async job id until it reports done or failed
// (api.Poll, GETting at once). An unknown id (404 job_unknown) is an
// error, not a wait.
func (c *Client) Poll(ctx context.Context, id string) (*api.BatchResponse, error) {
	return api.Poll(ctx, pollInterval, nil, func(ctx context.Context) (*api.BatchResponse, error) {
		return api.Exchange(ctx, c.httpClient(), http.MethodGet, c.BaseURL+"/v1/runs/"+id, c.Tenant, nil)
	})
}

func (c *Client) post(ctx context.Context, breq api.BatchRequest) (*api.BatchResponse, error) {
	body, err := json.Marshal(breq)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := api.Exchange(ctx, c.httpClient(), http.MethodPost, c.BaseURL+"/v1/runs", c.Tenant, body)
		switch v, werr := clientRetry.Wait(ctx, err, attempt); {
		case werr != nil:
			return nil, werr
		case v != api.Waited:
			return resp, err
		}
	}
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
	defer func() {
		io.Copy(io.Discard, io.LimitReader(httpResp.Body, 1<<20))
		httpResp.Body.Close()
	}()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: healthz status %d", httpResp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(httpResp.Body).Decode(&h); err != nil {
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
			AreaChanges: api.SimAreaChanges(rr.AreaChanges),
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
