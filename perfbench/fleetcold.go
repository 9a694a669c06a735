package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/bench"
	"wayplace/internal/check"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/fleet"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// cellShape is a cell without its benchmark: I-cache size and
// associativity (32-byte lines, round-robin), scheme and static
// way-placement area.
type cellShape struct {
	kb, ways int
	scheme   string
	wpKB     uint32
}

func (c cellShape) on(workload string) api.RunRequest {
	return api.RunRequest{
		Workload:    workload,
		ICache:      api.CacheGeometry{SizeBytes: c.kb << 10, Ways: c.ways, LineBytes: 32},
		Scheme:      c.scheme,
		WPSizeBytes: c.wpKB << 10,
	}
}

// coldVariants are the cell shapes of the cold universe. Whether they
// also appear in the paper grid does not matter: every pass runs on a
// fresh fleet.
var coldVariants = []cellShape{
	{8, 8, api.SchemeBaseline, 0},
	{8, 8, api.SchemeWayMemoization, 0},
	{8, 8, api.SchemeWayPlacement, 4},
	{4, 4, api.SchemeWayPlacement, 2},
	{64, 32, api.SchemeWayMemoization, 0},
	{64, 32, api.SchemeWayPlacement, 32},
	{16, 8, api.SchemeBaseline, 0},
	{16, 8, api.SchemeWayPlacement, 8},
}

const (
	// coldBackends is the fleet size.
	coldBackends = 2
	// coldMaxBatch is the largest cold batch.
	coldMaxBatch = 4
	// coldLimitMS is fleet-cold's latency limit for goodput.
	coldLimitMS = 1000.0
	// coldDigest digests the modelled statistics of the cold universe.
	coldDigest = 0xb4f0c8f149af
)

// coldUniverse is every cell fleet-cold sends: each of the 23 real
// benchmarks under every cold variant, all distinct.
func coldUniverse() []api.RunRequest {
	var u []api.RunRequest
	for _, name := range bench.Names() {
		for _, v := range coldVariants {
			u = append(u, v.on(name))
		}
	}
	return u
}

// coldFleet is one in-process wpcoordd over store-backed wpserved
// backends.
type coldFleet struct {
	backends []*backend
	coord    *coordinator
	progs    map[string]*experiment.Workload
}

// startColdFleet is fleet-cold's set-up: prepare the real benchmarks
// once (the backends share the programs through their provider), start
// the backends on fresh stores under dir, then the coordinator.
func startColdFleet(ctx context.Context, dir string, verify func(sim.Config, *sim.RunStats) error, tr *tracer) (*coldFleet, error) {
	names := bench.Names()
	progs := make(map[string]*experiment.Workload, len(names))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(names); i = int(next.Add(1) - 1) {
				p, err := experiment.Prepare(names[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				progs[names[i]] = p
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	provider := func(ctx context.Context, name string) (*engine.Workload, error) {
		w, ok := progs[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		return &engine.Workload{Name: name, Original: w.Original, Placed: w.Placed}, nil
	}
	f := &coldFleet{progs: progs}
	var urls []string
	for i := 0; i < coldBackends; i++ {
		b, err := startBackend(backendOptions{
			provider: provider,
			verify:   verify,
			storeDir: filepath.Join(dir, "store-"+strconv.Itoa(i)),
			traced:   tr,
		})
		if err != nil {
			f.close(ctx)
			return nil, err
		}
		f.backends = append(f.backends, b)
		urls = append(urls, b.http.URL)
	}
	c, err := startCoordinator(urls, tr)
	if err != nil {
		f.close(ctx)
		return nil, err
	}
	f.coord = c
	return f, nil
}

func (f *coldFleet) close(ctx context.Context) error {
	var err error
	if f.coord != nil {
		err = f.coord.close(ctx)
	}
	for _, b := range f.backends {
		if berr := b.close(ctx); err == nil {
			err = berr
		}
	}
	return err
}

// simulated is how many cells the backends simulated between them.
func (f *coldFleet) simulated() uint64 {
	var n uint64
	for _, b := range f.backends {
		n += b.eng.Misses()
	}
	return n
}

// coldPass is what one pass over the universe produced.
type coldPass struct {
	loop    loopStats
	m       meter
	results map[string]api.RunResult // by cell key
	batches [][]api.RunResult        // per batch, in sequence order
	flushS  float64
}

// runColdPass sends every cell of the universe once, in the seeded
// batch sequence, from closed-loop clients sharing the sequence, then
// flushes the stores' write-behind queues. The timed part ends when
// the last result is durable.
func runColdPass(ctx context.Context, o *outcome, f *coldFleet, universe []api.RunRequest, seed int64, pass int) (*coldPass, error) {
	batches := coldBatches(seed, pass, len(universe), coldMaxBatch)
	cp := &coldPass{results: map[string]api.RunResult{}, batches: make([][]api.RunResult, len(batches))}
	calls := make([]*call, len(batches))
	var mu sync.Mutex
	for bi, idx := range batches {
		reqs := make([]api.RunRequest, len(idx))
		for i, u := range idx {
			reqs[i] = universe[u]
		}
		body, err := json.Marshal(api.BatchRequest{Requests: reqs})
		if err != nil {
			return nil, err
		}
		calls[bi] = &call{body: body, cells: len(reqs), check: func(got []byte) error {
			var resp api.BatchResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				return fmt.Errorf("fleet-cold: undecodable response: %v", err)
			}
			if resp.Status != api.StatusDone || len(resp.Errors) > 0 || len(resp.Results) != len(reqs) {
				return fmt.Errorf("fleet-cold: batch %d: status %q, %d errors, %d of %d results",
					bi, resp.Status, len(resp.Errors), len(resp.Results), len(reqs))
			}
			for i, r := range resp.Results {
				if r.Key != reqs[i].Key() || r.Stats == nil || r.CacheHit {
					return fmt.Errorf("fleet-cold: batch %d cell %d: key %q, stats %v, cache hit %v; want a fresh simulation of %q",
						bi, i, r.Key, r.Stats != nil, r.CacheHit, reqs[i].Key())
				}
			}
			mu.Lock()
			for _, r := range resp.Results {
				cp.results[r.Key] = r
			}
			cp.batches[bi] = resp.Results
			mu.Unlock()
			return nil
		}}
	}
	var next atomic.Int64
	cp.m.start()
	cp.loop = closedLoop(ctx, f.coord.http.URL, clients(), func(int, int) *call {
		i := int(next.Add(1) - 1)
		if i >= len(calls) {
			return nil
		}
		return calls[i]
	})
	t0 := time.Now()
	for _, b := range f.backends {
		b.st.Flush()
	}
	cp.flushS = time.Since(t0).Seconds()
	cp.m.stop()
	o.count(cp.loop)
	if got := f.simulated(); got != uint64(len(universe)) {
		o.fail("fleet-cold: %d cells simulated fleet-wide, want each of %d distinct cells exactly once", got, len(universe))
	}
	return cp, nil
}

// keyed lists a pass's results for the model summary.
func (cp *coldPass) keyed() []keyedStats {
	cells := make([]keyedStats, 0, len(cp.results))
	for k, r := range cp.results {
		cells = append(cells, keyedStats{Key: k, Stats: r.Stats})
	}
	return cells
}

// runFleetCold measures cold cells through every layer: a coordinator
// over two store-backed backends, two closed-loop clients sending each
// cell of a fixed universe once, in seeded order and batch sizes.
// Every pass runs on a freshly set-up fleet, so every cell is cold.
func runFleetCold(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	universe := coldUniverse()
	if _, err := api.ToSpecs(universe); err != nil {
		return nil, err
	}
	work := filepath.Join(cfg.Work, "fleet-cold-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(work)

	var setups, passSetups, walls, rates, cpuPer []float64
	var m meter
	var cells int
	var instrs uint64
	var first *coldPass
	var all loopStats // every pass's batch latencies
	// setup_s is the median of the set-ups before the first pass, always
	// setupRepeats of them: the extra ones here and the first pass's.
	// Set-ups between passes run on a warmer process, and how many there
	// are depends on the host's speed, so they are recorded apart.
	for i := 0; i+1 < setupRepeats; i++ {
		t0 := time.Now()
		f, err := startColdFleet(ctx, filepath.Join(work, "setup-"+strconv.Itoa(i)), check.VerifyCell, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := f.close(ctx); err != nil {
			return nil, err
		}
	}
	for pass := 0; ; pass++ {
		dir := filepath.Join(work, "pass-"+strconv.Itoa(pass))
		t0 := time.Now()
		f, err := startColdFleet(ctx, dir, check.VerifyCell, nil)
		if err != nil {
			return nil, err
		}
		if pass == 0 {
			setups = append(setups, time.Since(t0).Seconds())
		} else {
			passSetups = append(passSetups, time.Since(t0).Seconds())
		}
		cp, err := runColdPass(ctx, o, f, universe, cfg.Seed, pass)
		if cerr := f.close(ctx); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.Wall += cp.m.Wall
		m.CPU += cp.m.CPU
		m.Alloc += cp.m.Alloc
		m.GCs += cp.m.GCs
		walls = append(walls, cp.m.Wall.Seconds())
		perS, cpuPerCell := cp.m.perCell(cp.loop.cells)
		rates = append(rates, perS)
		cpuPer = append(cpuPer, cpuPerCell)
		cells += cp.loop.cells
		checkModel(o, "fleet-cold", cp.keyed(), coldDigest)
		all.lat = append(all.lat, cp.loop.lat...)
		all.batches += cp.loop.batches
		if first == nil {
			first = cp
			for _, r := range cp.results {
				instrs += r.Stats.Instrs
			}
		}
		// Another pass only if it is expected to end in time, but at
		// least two: one pass's batches are too few for a p90 with ten
		// samples beyond it.
		if pass >= 1 && m.Wall+m.Wall/time.Duration(pass+1) > cfg.Seconds {
			break
		}
	}
	model, _, err := modelSummary(first.keyed())
	if err != nil {
		return nil, err
	}
	p50, tail := latency(o, all, m.Wall, 0.90, coldLimitMS)
	meanPerS, meanCPUPerCell := m.perCell(cells)
	cellsPerS := upperQuartile(rates)
	o.E2E["setup_s"] = median(setups)
	o.E2E["cells_per_s"] = cellsPerS
	o.Detail["mean_cells_per_s"] = meanPerS
	o.E2E["cpu_ms_per_cell"] = median(cpuPer)
	o.Detail["mean_cpu_ms_per_cell"] = meanCPUPerCell
	o.Detail["passes"] = len(walls)
	o.Detail["pass_wall_s"] = walls
	o.Detail["setup_samples_s"] = setups
	o.Detail["pass_setup_samples_s"] = passSetups
	o.Detail["sim_minstr_per_s"] = float64(instrs) * float64(len(walls)) / m.Wall.Seconds() / 1e6
	if !cfg.Trace {
		return o, nil
	}

	L := o.Layers
	for k, v := range model {
		L[k] = v
	}
	L["client.lat_p50_ms"] = p50
	L["client.lat_tail_ms"] = tail
	L["client.goodput_per_s"] = o.Detail["goodput_per_s"].(float64)
	L["sim.minstr_per_s"] = o.Detail["sim_minstr_per_s"].(float64)
	L["host.alloc_bytes_per_cell"] = float64(m.Alloc) / float64(cells)
	L["host.gc_cycles"] = float64(m.GCs)
	var walls0 []float64
	for _, r := range first.results {
		walls0 = append(walls0, r.WallSeconds*1e3)
	}
	L["sim.cell_wall_ms"] = median(walls0)

	// Traced pass: a fresh fleet with every seam timed.
	tr := &tracer{}
	vt := &verifyTimer{}
	f, err := startColdFleet(ctx, filepath.Join(work, "traced"), vt.verify, tr)
	if err != nil {
		return nil, err
	}
	cp, err := runColdPass(ctx, o, f, universe, cfg.Seed, 0)
	accepted := int64(0)
	for _, b := range f.backends {
		accepted += b.http.ln.accepted.Load()
	}
	failovers := f.coord.reg.Counter(fleet.MetricFailovers).Value()
	simulated := f.simulated()
	var groups, coalesced uint64
	for _, b := range f.backends {
		groups += b.eng.Groups()
		coalesced += b.eng.CoalescedCells()
	}
	ring := f.coord.c.Ring()
	progs := f.progs
	if cerr := f.close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	checkModel(o, "fleet-cold", cp.keyed(), coldDigest)
	tracedPerS, _ := cp.m.perCell(cp.loop.cells)
	L["trace.overhead_pct"] = 100 * (cellsPerS/tracedPerS - 1)
	vt.report(L)

	L["engine.cells"] = float64(len(universe))
	L["engine.misses"] = float64(simulated)
	L["engine.hits"] = float64(uint64(len(universe)) - simulated)
	L["engine.hit_ratio"] = L["engine.hits"] / L["engine.cells"]

	L["serve.handler_p50_us"] = quantileOf(o, "backend handler p50", &tr.backendHandler, 0.5)
	L["serve.handler_tail_us"] = quantileOf(o, "backend handler p90", &tr.backendHandler, 0.9)
	// The coordinator is the backends' client: a backend's round trip
	// is the coordinator's exchange with it, and the network share is
	// that less the backend handler's median.
	rttUS := 1e3 * medianOf(&tr.backendRTT)
	L["serve.rtt_us"] = rttUS
	L["serve.net_us"] = rttUS - medianOf(&tr.backendHandler)
	L["serve.conns_accepted"] = float64(accepted)
	L["serve.http_429"] = float64(cp.loop.http429)
	L["serve.retries"] = float64(cp.loop.retries)

	L["fleet.coord_handler_ms"] = medianOf(&tr.coordHandler)
	L["fleet.backend_rtt_ms"] = medianOf(&tr.backendRTT)
	L["fleet.overhead_ms"] = medianOf(&tr.overhead)
	L["fleet.subbatches_per_batch"] = float64(tr.subRequests.Load()) / float64(cp.loop.batches)
	L["fleet.failovers"] = float64(failovers)
	L["fleet.backend_429"] = float64(tr.backend429.Load())
	L["fleet.simulated_cells"] = float64(simulated)

	if n := tr.loads.Load(); n > 0 {
		L["store.load_us"] = float64(tr.loadNS.Load()) / 1e3 / float64(n)
	}
	if n := tr.saves.Load(); n > 0 {
		L["store.save_us"] = float64(tr.saveNS.Load()) / 1e3 / float64(n)
	}
	L["store.flush_s"] = cp.flushS
	L["store.objects"] = float64(tr.saves.Load())

	// The api layer on this workload's own bodies and responses, and
	// the engine's grouping and the simulator's split on the groups the
	// backends formed: cells of one sub-batch sharing a fetch stream.
	var bodies [][]byte
	var results [][]*engine.Result
	var fresh []*engine.Result
	var batchOf []string
	base := baseConfig()
	for bi, rs := range cp.batches {
		var reqs []api.RunRequest
		var er []*engine.Result
		for _, r := range rs {
			reqs = append(reqs, r.Request)
			spec, err := r.Request.Spec()
			if err != nil {
				return nil, err
			}
			res := &engine.Result{Spec: spec, Stats: r.Stats, Wall: time.Duration(r.WallSeconds * 1e9), GroupID: r.GroupID}
			er = append(er, res)
			fresh = append(fresh, res)
			batchOf = append(batchOf, strconv.Itoa(bi)+"/"+strconv.Itoa(ring.Owner(r.Key)))
		}
		body, err := json.Marshal(api.BatchRequest{Requests: reqs})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
		results = append(results, er)
	}
	if err := apiCost(bodies, results, L); err != nil {
		return nil, err
	}
	L["engine.groups"] = float64(groups)
	L["engine.coalesced_cells"] = float64(coalesced)
	if groups > 0 {
		L["engine.cells_per_group"] = float64(coalesced) / float64(groups)
	}
	passes := groupsOf(base, fresh, func(i int) string { return batchOf[i] },
		func(name string) (*obj.Program, *obj.Program) { return progs[name].Original, progs[name].Placed })
	if err := simDecompose(ctx, base, passes, L); err != nil {
		return nil, err
	}
	return o, prepareSteps(bench.Names(), L)
}
