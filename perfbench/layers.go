package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/bench"
	"wayplace/internal/check"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// This file times layers from the outside: direct calls into bench,
// sim, layout and api, and wrappers installed at the engine's public
// injection points. Nothing here changes what the program computes.

// baseConfig is the machine template the daemons and the paper-grid
// suite resolve cells against (the same one wpserved uses).
func baseConfig() sim.Config {
	base := sim.Default()
	base.MaxInstrs = experiment.MaxInstrs
	return base
}

// verifyTimer wraps check.VerifyCell for engine.WithVerify, counting
// calls and the time spent in them.
type verifyTimer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (v *verifyTimer) verify(cfg sim.Config, rs *sim.RunStats) error {
	t0 := time.Now()
	err := check.VerifyCell(cfg, rs)
	v.ns.Add(int64(time.Since(t0)))
	v.calls.Add(1)
	return err
}

func (v *verifyTimer) reset() {
	v.calls.Store(0)
	v.ns.Store(0)
}

func (v *verifyTimer) report(layers map[string]float64) {
	n := v.calls.Load()
	layers["check.cells_verified"] = float64(n)
	if n > 0 {
		layers["check.verify_us"] = float64(v.ns.Load()) / 1e3 / float64(n)
	}
}

// prepareSteps repeats experiment.Prepare's pipeline step by step for
// each named benchmark and reports the time spent building, profiling
// and linking, so set-up time can be split by layer.
func prepareSteps(names []string, layers map[string]float64) error {
	var build, prof, link time.Duration
	for _, name := range names {
		bm, err := bench.ByName(name)
		if err != nil {
			return err
		}
		t0 := time.Now()
		small, err := bm.Build(bench.Small)
		if err != nil {
			return err
		}
		large, err := bm.Build(bench.Large)
		if err != nil {
			return err
		}
		t1 := time.Now()
		smallProg, err := layout.LinkOriginal(small, experiment.TextBase)
		if err != nil {
			return err
		}
		t2 := time.Now()
		p, _, err := sim.ProfileRun(smallProg, experiment.MaxInstrs)
		if err != nil {
			return err
		}
		t3 := time.Now()
		if _, err := layout.LinkOriginal(large, experiment.TextBase); err != nil {
			return err
		}
		if _, err := layout.Link(large, p, experiment.TextBase); err != nil {
			return err
		}
		t4 := time.Now()
		build += t1.Sub(t0)
		link += t2.Sub(t1) + t4.Sub(t3)
		prof += t3.Sub(t2)
	}
	layers["bench.build_s"] = build.Seconds()
	layers["profile.run_s"] = prof.Seconds()
	layers["layout.link_s"] = link.Seconds()
	return nil
}

// resolve mirrors the engine's resolution of a cell against the base
// template, for rebuilding the models of a single-pass group.
func resolve(base sim.Config, spec engine.RunSpec) sim.Config {
	base.ICache = spec.ICache
	base.Scheme = spec.Scheme
	base.WPSize = spec.WPSize
	if spec.Style != 0 {
		base.Style = spec.Style
	}
	base.OracleHint = base.OracleHint || spec.OracleHint
	base.NoSameLine = base.NoSameLine || spec.NoSameLine
	return base
}

// modelOf is the cache model a cell contributes to its group.
func modelOf(base sim.Config, spec engine.RunSpec) sim.ModelSpec {
	if spec.Adaptive.Enabled() {
		pol := spec.Adaptive.Policy()
		return sim.ModelSpec{Geometry: spec.ICache, Adaptive: &pol}
	}
	return sim.ModelSpecOf(resolve(base, spec))
}

// simGroup is one single-pass group: a program and the cache models
// that shared its fetch stream.
type simGroup struct {
	prog   *obj.Program
	models []sim.ModelSpec
}

// groupsOf rebuilds the single-pass groups behind a set of fresh
// results. batchOf names the engine call a result came from (groups
// never span calls); programs maps a workload to its binaries.
func groupsOf(base sim.Config, results []*engine.Result, batchOf func(i int) string, programs func(name string) (orig, placed *obj.Program)) []simGroup {
	index := map[string]int{}
	var groups []simGroup
	for i, r := range results {
		if r == nil || r.CacheHit || r.GroupID == "" {
			continue
		}
		k := batchOf(i) + "|" + r.GroupID
		g, ok := index[k]
		if !ok {
			orig, placed := programs(r.Spec.Workload)
			prog := orig
			if strings.HasSuffix(r.GroupID, "/placed") {
				prog = placed
			}
			g = len(groups)
			index[k] = g
			groups = append(groups, simGroup{prog: prog})
		}
		groups[g].models = append(groups[g].models, modelOf(base, r.Spec))
	}
	return groups
}

// simDecompose splits the simulator's time for the given groups into
// fetch-stream production and model consumption: it drains a
// FetchSource for each group alone (production), then runs RunMulti on
// the same group (production plus every model consuming it). Groups
// run on GOMAXPROCS workers, as the engine runs them.
func simDecompose(ctx context.Context, base sim.Config, groups []simGroup, layers map[string]float64) error {
	var mu sync.Mutex
	var produce, multi time.Duration
	var instrs, chunks, models int64
	var firstErr error
	jobs := make(chan simGroup)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				p, m, n, c, err := decomposeGroup(ctx, base, g)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				produce += p
				multi += m
				instrs += n
				chunks += c
				models += int64(len(g.models))
				mu.Unlock()
			}
		}()
	}
	for _, g := range groups {
		jobs <- g
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	layers["sim.produce_s"] = produce.Seconds()
	layers["sim.runmulti_s"] = multi.Seconds()
	layers["sim.consume_s"] = (multi - produce).Seconds()
	layers["sim.instrs"] = float64(instrs)
	layers["sim.chunks"] = float64(chunks)
	layers["sim.models"] = float64(models)
	return nil
}

func decomposeGroup(ctx context.Context, base sim.Config, g simGroup) (produce, multi time.Duration, instrs, chunks int64, err error) {
	block := base.ITLB.PageBytes
	for _, m := range g.models {
		if lb := m.Geometry.LineBytes; lb < block {
			block = lb
		}
	}
	t0 := time.Now()
	src, err := sim.NewFetchSource(g.prog, base, block)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for {
		ch, err := src.NextChunk(ctx)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if ch == nil {
			break
		}
		chunks++
		instrs += int64(len(ch.Events))
	}
	produce = time.Since(t0)
	t1 := time.Now()
	res, err := sim.RunMulti(ctx, g.prog, base, g.models)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	multi = time.Since(t1)
	for _, r := range res {
		if r.Err != nil {
			return 0, 0, 0, 0, r.Err
		}
	}
	return produce, multi, instrs, chunks, nil
}

// apiCost times the api layer on a workload's own bodies: decoding a
// request (JSON decode, validation, conversion to engine cells) and
// encoding its response (ResultOf and the streaming encoder).
func apiCost(bodies [][]byte, results [][]*engine.Result, layers map[string]float64) error {
	var dec, enc []float64
	var reqBytes, respBytes int
	var buf bytes.Buffer
	for i, body := range bodies {
		t0 := time.Now()
		var breq api.BatchRequest
		if err := json.Unmarshal(body, &breq); err != nil {
			return err
		}
		if _, err := api.ToSpecs(breq.Requests); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t0))/1e3)
		reqBytes += len(body)

		t1 := time.Now()
		resp := &api.BatchResponse{APIVersion: api.Version, JobID: api.BatchKey(breq.Requests), Status: api.StatusDone}
		for _, r := range results[i] {
			resp.Results = append(resp.Results, api.ResultOf(r))
		}
		buf.Reset()
		if err := api.EncodeBatchResponse(&buf, resp); err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t1))/1e3)
		respBytes += buf.Len()
	}
	if len(bodies) == 0 {
		return nil
	}
	layers["api.decode_us"] = median(dec)
	layers["api.encode_us"] = median(enc)
	layers["api.request_bytes"] = float64(reqBytes) / float64(len(bodies))
	layers["api.response_bytes"] = float64(respBytes) / float64(len(bodies))
	return nil
}

// keyedStats is one cell's modelled statistics under its canonical key.
type keyedStats struct {
	Key   string
	Stats *sim.RunStats
}

// modelSummary sums the modelled machine's counters over a workload's
// distinct cells in canonical (key) order and digests every statistic
// of every cell. None of these depend on the host: they must repeat
// exactly on every run, and only a change to the modelled design may
// move them.
func modelSummary(cells []keyedStats) (map[string]float64, uint64, error) {
	sorted := append([]keyedStats(nil), cells...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Key < sorted[b].Key })
	h := sha256.New()
	var instrs, cycles, fetches, tags, misses, extra, missed uint64
	var energy float64
	for i, c := range sorted {
		if i > 0 && sorted[i-1].Key == c.Key {
			return nil, 0, fmt.Errorf("cell %s counted twice", c.Key)
		}
		b, err := json.Marshal(c.Stats)
		if err != nil {
			return nil, 0, err
		}
		h.Write([]byte(c.Key))
		h.Write([]byte{'\n'})
		h.Write(b)
		h.Write([]byte{'\n'})
		s := c.Stats
		instrs += s.Instrs
		cycles += s.Cycles
		fetches += s.IStats.Fetches
		tags += s.IStats.TagComparisons
		misses += s.IStats.Misses
		extra += s.IStats.HintExtraAccess
		missed += s.IStats.HintMissedSaving
		energy += s.Energy.ICache()
	}
	// 48 bits of the digest: exact in a float64 metric.
	digest := binary.BigEndian.Uint64(h.Sum(nil)[:8]) >> 16
	return map[string]float64{
		"model.instrs":                 float64(instrs),
		"model.cycles":                 float64(cycles),
		"model.icache_fetches":         float64(fetches),
		"model.icache_tag_comparisons": float64(tags),
		"model.icache_misses":          float64(misses),
		"model.hint_extra_access":      float64(extra),
		"model.hint_missed_saving":     float64(missed),
		"model.icache_energy":          energy,
		"model.stats_digest":           float64(digest),
	}, digest, nil
}

// checkModel computes the model summary and compares its digest with
// the workload's golden value, failing the run on any difference.
func checkModel(o *outcome, workload string, cells []keyedStats, golden uint64) map[string]float64 {
	sums, digest, err := modelSummary(cells)
	if err != nil {
		o.fail("%s: model statistics: %v", workload, err)
		return nil
	}
	o.Detail["model_digest"] = fmt.Sprintf("%012x", digest)
	if digest != golden {
		o.fail("%s: modelled statistics changed: digest %012x over %d cells, want %012x", workload, digest, len(cells), golden)
	}
	return sums
}
