package check

// The differential harness: run one program under every fetch scheme
// and layout combination the repository evaluates and demand that they
// agree wherever the architecture says they must. The fetch schemes
// are pure cache-management policies — none of them may change what
// the program computes — so the checksum, the retired instruction
// count and the final memory contents must be identical across all of
// them, and a handful of orderings must hold between their statistics
// (a scheme that claims to save tag comparisons must actually perform
// fewer). Every variant's statistics additionally pass the full
// invariant suite of check.go.
//
// Since the sim package split into fetch-stream production and cache
// modelling, the harness is also a cross-implementation check: every
// variant executes twice — once through the coupled reference loop
// (Coupled: sim.RunCoupled, or sim.RunAdaptive) and once through the
// single-pass machinery (sim.RunMulti) — and the two statistics must
// match field for field, bit for bit. The single-pass leg records its fetch
// streams (sim.RecordMulti), and a third leg replays every variant
// from the recording (sim.ReplayMulti), which must match the live
// pass just as exactly. A fourth leg replays the other binary's
// recording relocated onto every variant's binary (sim.ReplayMulti),
// as the engine replays a workload's one recording onto whichever
// layout did not make it, and must match just as exactly too. A defect in any implementation
// surfaces as a divergence here instead of a silently wrong figure.

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// Variant is one scheme/layout combination executed by Differential.
type Variant struct {
	Name  string
	Stats *sim.RunStats
	// Changes is the OS resize trace (adaptive variant only).
	Changes []sim.AreaChange
}

// Differential runs original and placed images of one program under
// all six scheme variants — baseline, way-memoization, way-placement,
// way-placement with the oracle hint, way-placement without the
// same-line tag-check skip, and way-placement under the OS-adaptive
// area policy — and checks per-variant invariants,
// cross-variant architectural equivalence, and coupled-vs-single-pass
// implementation agreement. The returned variants are always complete
// when err reports only check violations; a shorter slice means a
// variant failed to execute at all.
//
// The single-pass leg runs coalesced: variants sharing a binary are
// evaluated by one sim.RunMulti pass, exactly as the engine's
// grouping planner batches grid cells. DifferentialMode exposes the
// per-cell alternative.
func Differential(ctx context.Context, original, placed *obj.Program, base sim.Config, wpSize uint32) ([]Variant, error) {
	return DifferentialMode(ctx, original, placed, base, wpSize, true)
}

// DifferentialMode is Differential with the single-pass execution
// shape under caller control: coalesced (one multi-model pass per
// binary) or per-cell (one single-model pass per variant). Both shapes
// must agree with the coupled reference; the fuzzer alternates them.
func DifferentialMode(ctx context.Context, original, placed *obj.Program, base sim.Config, wpSize uint32, coalesce bool) ([]Variant, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The six variants are engine cells, resolved exactly as the engine
	// resolves them (engine.Resolve, engine.UsesPlaced, engine.ModelOf).
	type variantSpec struct {
		name  string
		cell  engine.RunSpec
		prog  *obj.Program
		cfg   sim.Config // the cell's resolved configuration
		model sim.ModelSpec
	}
	cell := func(scheme energy.Scheme, wp uint32) engine.RunSpec {
		return engine.RunSpec{ICache: base.ICache, Scheme: scheme, WPSize: wp}
	}
	wp := cell(energy.WayPlacement, wpSize)
	oracle, noSameLine, adaptive := wp, wp, cell(energy.WayPlacement, 0)
	oracle.OracleHint = true
	noSameLine.NoSameLine = true
	adaptive.Adaptive = engine.AdaptiveSpecOf(sim.DefaultAdaptivePolicy(base.ICache, base.ITLB.PageBytes))
	specs := []variantSpec{
		{name: "baseline", cell: cell(energy.Baseline, 0)},
		{name: "waymem", cell: cell(energy.WayMemoization, 0)},
		{name: "wayplace", cell: wp},
		{name: "wayplace-oracle", cell: oracle},
		{name: "wayplace-nosameline", cell: noSameLine},
		{name: "wayplace-adaptive", cell: adaptive},
	}
	w := &engine.Workload{Original: original, Placed: placed}
	for i := range specs {
		s := &specs[i]
		s.prog = original
		if engine.UsesPlaced(s.cell) {
			s.prog = placed
		}
		s.cfg = engine.Resolve(base, s.cell)
		s.model = engine.ModelOf(s.cell, s.cfg)
	}

	// Single-pass leg. Coalesced mode batches the variants sharing a
	// binary into one RunMulti pass each. Every pass records its
	// stream; the first recording per binary feeds the replay leg. A
	// pass records nothing when none of its models succeeded (every
	// spec invalid, or every model failed mid-stream); the per-model
	// errors are then reported by the coupled comparison below.
	single := make([]*sim.ModelResult, len(specs))
	traces := make(map[*obj.Program]*sim.FetchTrace, 2)
	record := func(prog *obj.Program, models []sim.ModelSpec) ([]*sim.ModelResult, error) {
		res, tr, err := sim.RecordMulti(ctx, prog, base, models)
		if err == nil && tr == nil && anySucceeded(res) {
			err = errors.New("pass completed but recorded no fetch trace")
		}
		if tr != nil && traces[prog] == nil {
			traces[prog] = tr
		}
		return res, err
	}
	if coalesce {
		for _, prog := range []*obj.Program{original, placed} {
			var idx []int
			var models []sim.ModelSpec
			for i, s := range specs {
				if s.prog == prog {
					idx = append(idx, i)
					models = append(models, s.model)
				}
			}
			res, err := record(prog, models)
			if err != nil {
				return nil, fmt.Errorf("check: differential single-pass: %w", err)
			}
			for j, i := range idx {
				single[i] = res[j]
			}
		}
	} else {
		for i, s := range specs {
			res, err := record(s.prog, []sim.ModelSpec{s.model})
			if err != nil {
				return nil, fmt.Errorf("check: differential single-pass %s: %w", s.name, err)
			}
			single[i] = res[0]
		}
	}

	// Replay and relocation legs: every variant evaluated against its
	// binary's recording, and against the other binary's recording
	// relocated onto its binary, must match the live pass bit for bit.
	// A binary none of whose passes recorded a trace has nothing to
	// replay or relocate.
	var errs []error
	other := map[*obj.Program]*obj.Program{original: placed, placed: original}
	for i, s := range specs {
		if tr := traces[s.prog]; tr != nil {
			res, err := sim.ReplayMulti(ctx, tr, s.prog, base, []sim.ModelSpec{s.model})
			if err != nil {
				return nil, fmt.Errorf("check: differential replay %s: %w", s.name, err)
			}
			errs = append(errs, ReplayDiffs(s.name, res[0], single[i])...)
		}
		if tr := traces[other[s.prog]]; tr != nil {
			res, err := sim.ReplayMulti(ctx, tr, s.prog, base, []sim.ModelSpec{s.model})
			if err != nil {
				return nil, fmt.Errorf("check: differential relocation %s: %w", s.name, err)
			}
			errs = append(errs, ReplayDiffs(s.name+" (relocated)", res[0], single[i])...)
		}
	}

	variants := make([]Variant, 0, len(specs))
	for i, s := range specs {
		// Coupled reference leg.
		adaptive := s.cell.Adaptive.Enabled()
		rs, changes, err := Coupled(ctx, w, base, s.cell)
		if err != nil {
			return variants, fmt.Errorf("check: differential %s: %w", s.name, err)
		}

		// Implementation agreement: single-pass vs coupled, bit for bit.
		if serr := single[i].Err; serr != nil {
			errs = append(errs, fmt.Errorf("%s: single-pass failed where coupled succeeded: %w", s.name, serr))
		} else {
			for _, d := range StatDiffs(single[i].Stats, rs) {
				errs = append(errs, fmt.Errorf("%s: single-pass diverges from coupled: %s", s.name, d))
			}
			if adaptive && !reflect.DeepEqual(single[i].AreaChanges, changes) {
				errs = append(errs, fmt.Errorf("%s: single-pass area trace %v diverges from coupled %v",
					s.name, single[i].AreaChanges, changes))
			}
		}

		if err := Run(s.cfg, rs); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", s.name, err))
		}
		if adaptive {
			// The OS resizes the area mid-run, so on top of the per-run
			// invariants every area the OS ever installed must place
			// bijectively while it fits the cache.
			for _, ch := range changes {
				if err := WPBijective(base.ICache, placed.Base, ch.Size); err != nil {
					errs = append(errs, fmt.Errorf("%s at instr %d: %w", s.name, ch.AtInstr, err))
				}
			}
		}
		variants = append(variants, Variant{Name: s.name, Stats: rs, Changes: changes})
	}

	errs = append(errs, equivalence(variants)...)
	if len(errs) > 0 {
		return variants, fmt.Errorf("check: differential: %w", errors.Join(errs...))
	}
	return variants, nil
}

// anySucceeded reports whether some model of a pass produced stats:
// the producer then ran to completion, so the pass must have recorded
// its stream.
func anySucceeded(res []*sim.ModelResult) bool {
	for _, r := range res {
		if r.Err == nil {
			return true
		}
	}
	return false
}

// ReplayDiffs compares one model's replayed result against the live
// pass it was recorded from: the same per-model error, or the same
// statistics in every field and the same area trace.
func ReplayDiffs(name string, replayed, live *sim.ModelResult) []error {
	switch {
	case (replayed.Err == nil) != (live.Err == nil):
		return []error{fmt.Errorf("%s: replay error %v, live error %v", name, replayed.Err, live.Err)}
	case live.Err != nil:
		if replayed.Err.Error() != live.Err.Error() {
			return []error{fmt.Errorf("%s: replay error %q, live error %q", name, replayed.Err, live.Err)}
		}
		return nil
	}
	var errs []error
	for _, d := range StatDiffs(replayed.Stats, live.Stats) {
		errs = append(errs, fmt.Errorf("%s: replay diverges from live pass: %s", name, d))
	}
	if !reflect.DeepEqual(replayed.AreaChanges, live.AreaChanges) {
		errs = append(errs, fmt.Errorf("%s: replayed area trace %v diverges from live %v",
			name, replayed.AreaChanges, live.AreaChanges))
	}
	return errs
}

// StatDiffs compares two run-statistic records field by field and
// describes every top-level field that differs. Empty means identical.
func StatDiffs(got, want *sim.RunStats) []string {
	var diffs []string
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
	t := gv.Type()
	for i := 0; i < t.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s: got %+v, want %+v",
				t.Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface()))
		}
	}
	return diffs
}

// equivalence holds the cross-variant laws: identical architectural
// outcome everywhere, and the stat orderings the schemes' saving
// claims rest on.
func equivalence(vs []Variant) []error {
	var errs []error
	byName := make(map[string]*sim.RunStats, len(vs))
	ref := vs[0]
	for _, v := range vs {
		byName[v.Name] = v.Stats
		if v.Stats.Checksum != ref.Stats.Checksum {
			errs = append(errs, fmt.Errorf("%s checksum %#x diverges from %s checksum %#x",
				v.Name, v.Stats.Checksum, ref.Name, ref.Stats.Checksum))
		}
		if v.Stats.Instrs != ref.Stats.Instrs {
			errs = append(errs, fmt.Errorf("%s retired %d instructions, %s retired %d",
				v.Name, v.Stats.Instrs, ref.Name, ref.Stats.Instrs))
		}
		if v.Stats.MemHash != ref.Stats.MemHash {
			errs = append(errs, fmt.Errorf("%s memory state %#x diverges from %s memory state %#x",
				v.Name, v.Stats.MemHash, ref.Name, ref.Stats.MemHash))
		}
	}

	base, wp, oracle := byName["baseline"], byName["wayplace"], byName["wayplace-oracle"]
	if base == nil || wp == nil || oracle == nil {
		return errs
	}
	// The scheme's whole point: fewer tag comparisons than the
	// baseline's W-per-fetch.
	if wp.IStats.TagComparisons > base.IStats.TagComparisons {
		errs = append(errs, fmt.Errorf("way-placement performed %d tag comparisons, baseline only %d",
			wp.IStats.TagComparisons, base.IStats.TagComparisons))
	}
	// The 1-bit hint only ever *adds* mispredicted accesses on top of
	// what perfect knowledge would do, so the oracle bounds it from
	// below, event-for-event and in I-cache energy.
	if oracle.IStats.TagComparisons > wp.IStats.TagComparisons {
		errs = append(errs, fmt.Errorf("oracle hint performed %d tag comparisons, 1-bit hint only %d",
			oracle.IStats.TagComparisons, wp.IStats.TagComparisons))
	}
	if oracle.Energy.ICache() > wp.Energy.ICache()*(1+1e-12) {
		errs = append(errs, fmt.Errorf("oracle hint I$ energy %g above 1-bit hint's %g",
			oracle.Energy.ICache(), wp.Energy.ICache()))
	}
	// Hint quality cannot change what the cache holds — fills are
	// placed by address, not by probe path — so the miss streams of
	// the two hint variants must be identical.
	if oracle.IStats.Misses != wp.IStats.Misses {
		errs = append(errs, fmt.Errorf("oracle hint saw %d I$ misses, 1-bit hint %d — cache contents diverged",
			oracle.IStats.Misses, wp.IStats.Misses))
	}
	// The same-line skip only drops tag checks of fetches that hit
	// anyway: without it the misses are the same and the comparisons
	// no fewer.
	if nsl := byName["wayplace-nosameline"]; nsl != nil {
		if nsl.IStats.Misses != wp.IStats.Misses {
			errs = append(errs, fmt.Errorf("same-line skip off saw %d I$ misses, on %d — cache contents diverged",
				nsl.IStats.Misses, wp.IStats.Misses))
		}
		if nsl.IStats.TagComparisons < wp.IStats.TagComparisons {
			errs = append(errs, fmt.Errorf("same-line skip off performed %d tag comparisons, on %d",
				nsl.IStats.TagComparisons, wp.IStats.TagComparisons))
		}
	}
	return errs
}
