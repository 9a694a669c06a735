package load

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/fleet"
	"wayplace/internal/obs"
	"wayplace/internal/serve"
)

// FleetOptions sizes an in-process fleet: N loopback wpserved
// backends behind one wpcoordd-style coordinator, all on real
// 127.0.0.1 sockets.
type FleetOptions struct {
	// Backends is the fleet size. Required, >= 1.
	Backends int
	// Workloads is the synthetic workload count every backend serves
	// (default 4). All backends share the workload set — which backend
	// simulates which cell is the ring's decision, not the provider's.
	Workloads int
	// BackendWorkers caps each backend engine's concurrent cells
	// (default GOMAXPROCS). Scaling measurements pin this to 1 so
	// "4 backends" means exactly 4x the simulation parallelism of 1.
	BackendWorkers int
	// BackendQueue is each backend's serve queue depth (default 64).
	BackendQueue int
	// BackendPrepDelay is each backend's workload-preparation latency
	// (see LoopbackOptions.PrepDelay). Scaling benches set it so a
	// cold cell's service time is latency-dominated, as in a real
	// deployment; 0 leaves preparation CPU-only.
	BackendPrepDelay time.Duration
	// Registry, when non-nil, receives the coordinator's fleet_*
	// instruments (per-backend hit/miss/latency series included).
	Registry *obs.Registry
}

// coordQueue is the coordinator's queue depth: a coordinator slot
// only scatters and merges, so it is much cheaper than a backend slot
// and should not be the first thing to 429.
const coordQueue = 256

// Fleet is a running in-process fleet. Clients target URL exactly as
// they would a single wpserved.
type Fleet struct {
	URL         string
	Coordinator *fleet.Coordinator
	Backends    []*Loopback

	httpSrv *http.Server
	ln      net.Listener
}

// StartFleet boots the backends and the coordinator and starts
// serving the v1 surface on a loopback socket.
func StartFleet(opt FleetOptions) (*Fleet, error) {
	if opt.Backends < 1 {
		return nil, fmt.Errorf("load: fleet needs >= 1 backend, got %d", opt.Backends)
	}
	f := &Fleet{}
	urls := make([]string, opt.Backends)
	for i := 0; i < opt.Backends; i++ {
		lb, err := StartLoopback(LoopbackOptions{
			Workloads:  opt.Workloads,
			Workers:    opt.BackendWorkers,
			QueueDepth: opt.BackendQueue,
			PrepDelay:  opt.BackendPrepDelay,
		})
		if err != nil {
			f.closeAll()
			return nil, err
		}
		f.Backends = append(f.Backends, lb)
		urls[i] = lb.URL
	}
	coord, err := fleet.New(fleet.Options{
		Backends:   urls,
		Registry:   opt.Registry,
		QueueDepth: coordQueue,
		Failover:   1,
	})
	if err != nil {
		f.closeAll()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.closeAll()
		return nil, err
	}
	f.Coordinator = coord
	f.ln = ln
	f.httpSrv = &http.Server{Handler: coord.Handler()}
	go f.httpSrv.Serve(ln)
	f.URL = "http://" + ln.Addr().String()
	return f, nil
}

func (f *Fleet) closeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.Close(ctx)
}

// Close stops the coordinator first (so no new scatters start), then
// the backends.
func (f *Fleet) Close(ctx context.Context) error {
	var err error
	if f.httpSrv != nil {
		err = f.httpSrv.Shutdown(ctx)
	}
	if f.Coordinator != nil {
		if serr := f.Coordinator.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	for _, lb := range f.Backends {
		if cerr := lb.Close(ctx); err == nil {
			err = cerr
		}
	}
	return err
}

// SimulatedCells sums the backends' engine miss counters: how many
// cells the whole fleet actually simulated. With the ring healthy
// this equals the number of distinct cells ever requested — the
// once-per-fleet invariant the bench asserts.
func (f *Fleet) SimulatedCells() uint64 {
	var n uint64
	for _, lb := range f.Backends {
		n += lb.Engine.Misses()
	}
	return n
}

// SingletonPool builds one baseline cell per workload. This is the
// pool shape that isolates scaling: every cell is its own workload,
// so sharding never prepares a workload on two backends (contrast
// Pool, whose workloads each have an original and a placed stream
// that the ring may route to different backends, each preparing the
// workload).
func SingletonPool(workloads []string, icache api.CacheGeometry) []api.RunRequest {
	reqs := make([]api.RunRequest, len(workloads))
	for i, w := range workloads {
		reqs[i] = api.RunRequest{Workload: w, ICache: icache, Scheme: api.SchemeBaseline}
	}
	return reqs
}

// FleetBenchOptions configures one scaling measurement.
type FleetBenchOptions struct {
	// Backends is the fleet size whose throughput is compared against
	// a 1-backend control. Required, >= 2.
	Backends int
	// Workloads sizes the singleton scaling pool (default 64): one
	// cold cell per workload, so pool preparation and simulation both
	// shard cleanly.
	Workloads int
	// PrepDelay is the per-workload preparation latency injected into
	// every backend (default 40ms). A cold cell's service time is then
	// latency-dominated — the regime a real fleet shards — so the
	// measurement answers "does the coordinator overlap its backends?"
	// on any host, including single-core CI runners where CPU-bound
	// backends could never scale. Negative disables the delay.
	PrepDelay time.Duration
	// MinSpeedup, when > 0, makes Run return an error if
	// fleet/single cells-per-second falls below it.
	MinSpeedup float64
	// Log receives progress lines (nil = quiet).
	Log io.Writer
}

// benchBatchCells is the scaling bench's submission batch size. One
// submitter issues batches sequentially: per batch the control
// backend runs all cells serially while the fleet's sub-batches run
// on all backends at once — the purest form of the question "does
// adding backends add throughput?".
const benchBatchCells = 64

// FleetBench measures cold-pool throughput of a 1-backend fleet and
// an Options.Backends-backend fleet over the identical singleton
// pool, and proves the once-per-fleet invariant: after pushing the
// whole pool through the coordinator twice, the summed backend
// simulate counters equal the pool size exactly — every cold cell
// simulated on exactly one backend, every repeat a cache hit there.
func FleetBench(ctx context.Context, opt FleetBenchOptions) (*FleetSnapshot, error) {
	if opt.Backends < 2 {
		return nil, fmt.Errorf("load: fleet bench needs >= 2 backends, got %d", opt.Backends)
	}
	if opt.Workloads == 0 {
		opt.Workloads = 64
	}
	switch {
	case opt.PrepDelay == 0:
		opt.PrepDelay = 40 * time.Millisecond
	case opt.PrepDelay < 0:
		opt.PrepDelay = 0
	}
	pool := SingletonPool(SyntheticNames(opt.Workloads), SyntheticGeometry())

	single, _, err := coldRun(ctx, 1, pool, opt)
	if err != nil {
		return nil, fmt.Errorf("load: 1-backend control: %w", err)
	}
	fleetRate, simulated, err := coldRun(ctx, opt.Backends, pool, opt)
	if err != nil {
		return nil, fmt.Errorf("load: %d-backend fleet: %w", opt.Backends, err)
	}

	res := &FleetSnapshot{
		Backends:             opt.Backends,
		ScalePoolCells:       len(pool),
		PrepDelaySeconds:     opt.PrepDelay.Seconds(),
		HostCPUs:             runtime.NumCPU(),
		SingleCellsPerSecond: single,
		FleetCellsPerSecond:  fleetRate,
		Speedup:              fleetRate / single,
		MinSpeedup:           opt.MinSpeedup,
		SimulatedCells:       simulated,
		OncePerFleet:         simulated == uint64(len(pool)),
	}
	if !res.OncePerFleet {
		return res, fmt.Errorf("load: fleet simulated %d cells for a %d-cell pool — a cell ran on more than one backend (or twice on one)",
			simulated, len(pool))
	}
	if opt.MinSpeedup > 0 && res.Speedup < opt.MinSpeedup {
		return res, fmt.Errorf("load: %d-backend speedup %.2fx < required %.2fx (single %.0f cells/s, fleet %.0f cells/s)",
			opt.Backends, res.Speedup, opt.MinSpeedup, single, fleetRate)
	}
	return res, nil
}

// coldRun boots a fresh n-backend fleet, pushes the pool through the
// coordinator once cold (timed) and once warm (verifying every repeat
// is a cache hit), and returns cold cells/sec plus the fleet-wide
// simulate count.
func coldRun(ctx context.Context, n int, pool []api.RunRequest, opt FleetBenchOptions) (float64, uint64, error) {
	f, err := StartFleet(FleetOptions{
		Backends:         n,
		Workloads:        opt.Workloads,
		BackendWorkers:   1, // 1 cell at a time per backend: backends are the unit of parallelism
		BackendPrepDelay: opt.PrepDelay,
	})
	if err != nil {
		return 0, 0, err
	}
	defer f.closeAll()
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "wpload: fleet bench: %d backend(s), %d-cell cold pool, batches of %d...\n",
			n, len(pool), benchBatchCells)
	}

	client := serve.NewClient(f.URL)
	submitAll := func() error {
		for at := 0; at < len(pool); at += benchBatchCells {
			end := at + benchBatchCells
			if end > len(pool) {
				end = len(pool)
			}
			resp, err := client.Run(ctx, pool[at:end])
			if err != nil {
				return err
			}
			if resp.Status != api.StatusDone || len(resp.Errors) != 0 {
				return fmt.Errorf("batch [%d:%d) ended %q with %d failures", at, end, resp.Status, len(resp.Errors))
			}
		}
		return nil
	}

	start := time.Now()
	if err := submitAll(); err != nil {
		return 0, 0, err
	}
	cold := time.Since(start)

	// Warm sweep: the identical pool again. Every cell must come back
	// from some backend's cache without a single new simulation.
	before := f.SimulatedCells()
	if err := submitAll(); err != nil {
		return 0, 0, err
	}
	if after := f.SimulatedCells(); after != before {
		return 0, 0, fmt.Errorf("warm sweep re-simulated %d cells — repeat keys are not landing on the backend that owns them", after-before)
	}
	rate := float64(len(pool)) / cold.Seconds()
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "wpload: fleet bench: %d backend(s): %v cold (%.0f cells/s), warm sweep all hits\n",
			n, cold.Round(time.Millisecond), rate)
	}
	return rate, f.SimulatedCells(), nil
}
