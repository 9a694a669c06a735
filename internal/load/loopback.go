package load

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"wayplace/internal/engine"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
	"wayplace/internal/sim"
	"wayplace/internal/store"
)

// LoopbackOptions sizes the in-process wpserved a load run targets
// when no external daemon is given. Zero values pick defaults tuned
// for load testing rather than for real experiments: many queue slots
// and tiny synthetic workloads so the serve path, not the simulator,
// is the bottleneck under measurement. The engine runs without the
// cell checker, which re-verifies every cell on every request
// including run-cache hits and so would measure itself, not the serve
// path.
type LoopbackOptions struct {
	Workloads  int // synthetic workloads to serve (default 4)
	Workers    int // engine workers (default GOMAXPROCS)
	QueueDepth int // serve queue slots (default 64)
	// PrepDelay, when > 0, adds a fixed latency to every workload
	// preparation, modelling what dominates a production backend's
	// cold-cell service time: fetching the binary, reading profiles,
	// hitting the store. Scaling benches need it — on a CPU-starved
	// host a purely CPU-bound backend cannot show fleet parallelism no
	// matter how well the coordinator overlaps its sub-batches.
	PrepDelay time.Duration
	// Registry, when non-nil, receives the serve_*/engine metrics
	// (the generator's load_* metrics live on its own registry).
	Registry *obs.Registry
	// StoreDir, when non-empty, layers a persistent CAS result store
	// under the engine run cache and journals accepted async batches
	// to StoreDir/journal.wal — the loopback twin of wpserved -store,
	// which is what the kill/restart choreography exercises.
	StoreDir string
	// Tenancy configures the serve layer's per-tenant quotas and
	// weighted-fair dispatch — the fairness bench runs against it.
	Tenancy serve.TenancyOptions
	// ServiceDelay is serve's artificial per-cell service time (held
	// inside the admission slot). The fairness bench sets it so slot
	// occupancy, not CPU, is what tenants contend for.
	ServiceDelay time.Duration
}

// Loopback is an in-process wpserved on a real 127.0.0.1 socket — the
// full HTTP stack, loopback latency only.
type Loopback struct {
	URL       string
	Engine    *engine.Engine
	Server    *serve.Server
	Workloads []string       // names the synthetic provider serves
	Store     *store.Store   // nil without StoreDir
	Journal   *store.Journal // nil without StoreDir

	httpSrv *http.Server
	ln      *countingListener
}

// countingListener counts accepted TCP connections — the ground truth
// for the keep-alive assertion: a pooled-transport load run must
// accept orders of magnitude fewer connections than it serves
// requests.
type countingListener struct {
	net.Listener
	conns atomic.Uint64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.conns.Add(1)
	}
	return c, err
}

// Conns returns how many TCP connections the server has accepted.
func (l *Loopback) Conns() uint64 { return l.ln.conns.Load() }

// StartLoopback builds the synthetic-workload engine, the serve
// facade and the listener, and starts serving.
func StartLoopback(opt LoopbackOptions) (*Loopback, error) {
	if opt.Workloads == 0 {
		opt.Workloads = 4
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 64
	}

	base := sim.Default()
	engOpts := []engine.Option{
		engine.WithWorkers(opt.Workers),
		engine.WithBaseConfig(base),
	}
	if opt.Registry != nil {
		engOpts = append(engOpts, engine.WithObserver(opt.Registry))
	}

	var st *store.Store
	var jnl *store.Journal
	if opt.StoreDir != "" {
		var err error
		st, err = store.Open(store.Options{
			Dir:         opt.StoreDir,
			Registry:    opt.Registry,
			Fingerprint: store.Fingerprint(base),
		})
		if err != nil {
			return nil, err
		}
		engOpts = append(engOpts, engine.WithStore(st))
		jnl, err = store.OpenJournal(filepath.Join(opt.StoreDir, "journal.wal"), opt.Registry)
		if err != nil {
			st.Close()
			return nil, err
		}
	}
	provider := SyntheticProvider(opt.Workloads)
	if opt.PrepDelay > 0 {
		inner := provider
		delay := opt.PrepDelay
		provider = func(ctx context.Context, name string) (*engine.Workload, error) {
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner(ctx, name)
		}
	}
	eng := engine.New(provider, engOpts...)

	srv, err := serve.New(serve.Options{
		Engine:       eng,
		Registry:     opt.Registry,
		QueueDepth:   opt.QueueDepth,
		Journal:      jnl,
		Tenancy:      opt.Tenancy,
		ServiceDelay: opt.ServiceDelay,
	})
	if err != nil {
		if st != nil {
			st.Close()
			jnl.Close()
		}
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if st != nil {
			st.Close()
			jnl.Close()
		}
		return nil, err
	}
	cln := &countingListener{Listener: ln}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(cln)

	return &Loopback{
		URL:       "http://" + ln.Addr().String(),
		Engine:    eng,
		Server:    srv,
		Workloads: SyntheticNames(opt.Workloads),
		Store:     st,
		Journal:   jnl,
		httpSrv:   httpSrv,
		ln:        cln,
	}, nil
}

// Close stops the listener and drains in-flight batches, bounded by
// ctx. With a store attached it then flushes write-behind saves, so a
// graceful close leaves the disk as warm as the run cache was.
func (l *Loopback) Close(ctx context.Context) error {
	err := l.httpSrv.Shutdown(ctx)
	if derr := l.Server.Shutdown(ctx); err == nil {
		err = derr
	}
	if l.Store != nil {
		l.Store.Flush()
		if cerr := l.Store.Close(); err == nil {
			err = cerr
		}
	}
	if l.Journal != nil {
		if cerr := l.Journal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
