package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wayplace/internal/engine"
	"wayplace/internal/fleet"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
	"wayplace/internal/store"
)

// clients is the closed-loop client count of fleet-cold:
// one per CPU of the 2-core reference host, never more.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func workers() int { return runtime.GOMAXPROCS(0) }

// countingListener counts accepted connections, so keep-alive reuse is
// visible from outside the server.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// httpDaemon is one in-process HTTP server on a loopback port.
type httpDaemon struct {
	URL  string
	ln   *countingListener
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpDaemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &httpDaemon{
		URL:  "http://" + ln.Addr().String(),
		ln:   &countingListener{Listener: ln},
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(d.ln)
	}()
	return d, nil
}

// close stops accepting, waits for in-flight requests, then for the
// serving goroutine.
func (d *httpDaemon) close(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	<-d.done
	return err
}

// backendOptions configures one in-process wpserved.
type backendOptions struct {
	provider engine.Provider
	verify   func(sim.Config, *sim.RunStats) error
	// storeDir holds the result store mounted under the run cache.
	storeDir string
	// traced installs the timing wrappers: store tier and handler.
	traced *tracer
}

// backend is one in-process wpserved with its daemon defaults (the
// invariant checker on every cell, a metrics registry, queue 8) and a
// result store.
type backend struct {
	eng  *engine.Engine
	srv  *serve.Server
	st   *store.Store
	http *httpDaemon
}

func startBackend(opt backendOptions) (*backend, error) {
	reg := obs.NewRegistry()
	base := baseConfig()
	opts := []engine.Option{
		engine.WithWorkers(0),
		engine.WithBaseConfig(base),
		engine.WithObserver(reg),
		engine.WithVerify(opt.verify),
	}
	st, err := store.Open(store.Options{Dir: opt.storeDir, Registry: reg, Fingerprint: store.Fingerprint(base)})
	if err != nil {
		return nil, err
	}
	var tier engine.StoreTier = st
	if opt.traced != nil {
		tier = &timedStore{st: st, t: opt.traced}
	}
	opts = append(opts, engine.WithStore(tier))
	b := &backend{st: st, eng: engine.New(opt.provider, opts...)}
	srv, err := serve.New(serve.Options{Engine: b.eng, Registry: reg, QueueDepth: 8, MaxBatchCells: 4096})
	if err != nil {
		st.Close()
		return nil, err
	}
	b.srv = srv
	var h http.Handler = srv.Handler()
	if opt.traced != nil {
		h = opt.traced.wrap(h, &opt.traced.backendHandler)
	}
	if b.http, err = listen(h); err != nil {
		st.Close()
		return nil, err
	}
	return b, nil
}

// close drains the daemon as wpserved does on SIGTERM.
func (b *backend) close(ctx context.Context) error {
	err := b.http.close(ctx)
	if serr := b.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	b.st.Close()
	return err
}

// coordinator is one in-process wpcoordd with its daemon defaults.
type coordinator struct {
	c    *fleet.Coordinator
	reg  *obs.Registry
	http *httpDaemon
}

func startCoordinator(backends []string, traced *tracer) (*coordinator, error) {
	reg := obs.NewRegistry()
	opt := fleet.Options{Backends: backends, Registry: reg}
	if traced != nil {
		// The coordinator's own default client, behind the timing
		// transport.
		opt.HTTP = &http.Client{Transport: &timingTransport{next: serve.NewTransport(2 * 64), t: traced}}
	}
	c, err := fleet.New(opt)
	if err != nil {
		return nil, err
	}
	var h http.Handler = c.Handler()
	if traced != nil {
		h = traced.wrap(h, &traced.coordHandler)
	}
	d, err := listen(h)
	if err != nil {
		return nil, err
	}
	return &coordinator{c: c, reg: reg, http: d}, nil
}

func (c *coordinator) close(ctx context.Context) error {
	err := c.http.close(ctx)
	if serr := c.c.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// call is one batch a client sends: the request body, its cell count,
// and the check its response must pass.
type call struct {
	body  []byte
	cells int
	check func(body []byte) error
}

// loopStats is what the closed-loop clients measured.
type loopStats struct {
	lat      []float64 // per-batch round trip, ms, successful batches only
	batches  int
	failed   int
	cells    int
	http429  int
	retries  int
	problems []string
}

// maxRetries bounds how often a client resubmits a batch answered 429.
const maxRetries = 20

// closedLoop runs n clients, each sending its next batch only after
// the previous one completed. next(client, i) returns a client's i-th
// batch, or nil when that client is done. Every client has its own
// keep-alive connection.
func closedLoop(ctx context.Context, url string, n int, next func(client, i int) *call) loopStats {
	per := make([]loopStats, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			st := &per[c]
			for i := 0; ctx.Err() == nil; i++ {
				cl := next(c, i)
				if cl == nil {
					return
				}
				st.batches++
				t0 := time.Now()
				body, err := postBatch(ctx, hc, url, cl.body, st)
				rtt := time.Since(t0)
				if err == nil {
					err = cl.check(body)
				}
				if err != nil {
					st.failed++
					if len(st.problems) < 5 {
						st.problems = append(st.problems, err.Error())
					}
					continue
				}
				st.cells += cl.cells
				st.lat = append(st.lat, float64(rtt)/float64(time.Millisecond))
			}
		}(c)
	}
	wg.Wait()
	var out loopStats
	for _, st := range per {
		out.lat = append(out.lat, st.lat...)
		out.batches += st.batches
		out.failed += st.failed
		out.cells += st.cells
		out.http429 += st.http429
		out.retries += st.retries
		out.problems = append(out.problems, st.problems...)
	}
	return out
}

// postBatch sends one synchronous batch and returns the 200 body. A
// 429 is retried after a short pause, up to maxRetries times; any
// other answer is an error.
func postBatch(ctx context.Context, hc *http.Client, url string, body []byte, st *loopStats) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/runs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return out, nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries:
			st.http429++
			st.retries++
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		default:
			if resp.StatusCode == http.StatusTooManyRequests {
				st.http429++
			}
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
		}
	}
}

// latency adds the batch latency quantiles and goodput of a
// closed-loop phase to o: the median and the tail percentile, each
// from exact samples, and the batches per second answered within
// limitMS. Failed batches count against goodput. Too few samples for
// a percentile fail the run.
func latency(o *outcome, ls loopStats, wall time.Duration, tailP, limitMS float64) (p50, tail float64) {
	q50, err := exactQuantile(ls.lat, 0.5)
	if err != nil {
		o.fail("latency: %v", err)
	}
	qt, err := exactQuantile(ls.lat, tailP)
	if err != nil {
		o.fail("latency: %v", err)
	}
	good := 0
	for _, v := range ls.lat {
		if v <= limitMS {
			good++
		}
	}
	o.Detail["lat_p50_ms"] = q50
	o.Detail["lat_tail_ms"] = qt
	o.Detail["latency_limit_ms"] = limitMS
	o.Detail["batches"] = ls.batches
	o.Detail["goodput_per_s"] = float64(good) / wall.Seconds()
	return q50.Value, qt.Value
}

// tracer collects the timings of the traced phase. Its wrappers sit at
// public seams only: http.Handler, http.RoundTripper and
// engine.StoreTier.
type tracer struct {
	backendHandler timings // µs per POST /v1/runs on a backend
	coordHandler   timings // ms per POST /v1/runs on the coordinator
	backendRTT     timings // ms per coordinator → backend exchange
	overhead       timings // ms per batch: coordinator handler − slowest sub-batch
	subRequests    atomic.Int64
	backend429     atomic.Int64
	loadNS, loads  atomic.Int64
	saveNS, saves  atomic.Int64
}

// timings is a concurrent sample set.
type timings struct {
	mu sync.Mutex
	v  []float64
}

func (t *timings) add(v float64) {
	t.mu.Lock()
	t.v = append(t.v, v)
	t.mu.Unlock()
}

func (t *timings) samples() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.v...)
}

// batchTrace follows one coordinator request through its scatter: the
// handler puts it in the request context, which the coordinator passes
// on to every backend exchange it makes.
type batchTrace struct {
	mu     sync.Mutex
	slowNS int64
}

type batchTraceKey struct{}

// wrap times POST /v1/runs through h, recording microseconds into dst
// for a backend and milliseconds for the coordinator.
func (t *tracer) wrap(h http.Handler, dst *timings) http.Handler {
	coord := dst == &t.coordHandler
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			h.ServeHTTP(w, r)
			return
		}
		bt := &batchTrace{}
		t0 := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), batchTraceKey{}, bt)))
		d := time.Since(t0)
		if !coord {
			dst.add(float64(d) / 1e3)
			return
		}
		dst.add(float64(d) / 1e6)
		bt.mu.Lock()
		slow := bt.slowNS
		bt.mu.Unlock()
		if slow > 0 {
			t.overhead.add(float64(int64(d)-slow) / 1e6)
		}
	})
}

// timingTransport times each coordinator → backend exchange from the
// request until its response body is closed.
type timingTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if req.Method == http.MethodPost {
		tt.t.subRequests.Add(1)
		if resp.StatusCode == http.StatusTooManyRequests {
			tt.t.backend429.Add(1)
		}
		bt, _ := req.Context().Value(batchTraceKey{}).(*batchTrace)
		resp.Body = &timedBody{ReadCloser: resp.Body, t0: t0, t: tt.t, bt: bt}
	}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	t0   time.Time
	t    *tracer
	bt   *batchTrace
	once sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		d := int64(time.Since(b.t0))
		b.t.backendRTT.add(float64(d) / 1e6)
		if b.bt != nil {
			b.bt.mu.Lock()
			if d > b.bt.slowNS {
				b.bt.slowNS = d
			}
			b.bt.mu.Unlock()
		}
	})
	return err
}

// timedStore is the engine's store tier with its calls timed.
type timedStore struct {
	st *store.Store
	t  *tracer
}

func (s *timedStore) Load(key string) (*sim.RunStats, []sim.AreaChange, bool) {
	t0 := time.Now()
	stats, changes, ok := s.st.Load(key)
	s.t.loadNS.Add(int64(time.Since(t0)))
	s.t.loads.Add(1)
	return stats, changes, ok
}

func (s *timedStore) Save(key string, stats *sim.RunStats, changes []sim.AreaChange) {
	t0 := time.Now()
	s.st.Save(key, stats, changes)
	s.t.saveNS.Add(int64(time.Since(t0)))
	s.t.saves.Add(1)
}

// medianOf is the median of a sample set, 0 when it is empty (a layer
// the workload never entered).
func medianOf(t *timings) float64 { return median(t.samples()) }

// quantileOf is an exact percentile of a traced sample set; too few
// samples fail the run like any other percentile.
func quantileOf(o *outcome, what string, t *timings, p float64) float64 {
	s := t.samples()
	if len(s) == 0 {
		return 0
	}
	q, err := exactQuantile(s, p)
	if err != nil {
		o.fail("%s: %v", what, err)
	}
	return q.Value
}
