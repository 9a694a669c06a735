package experiment

import (
	"context"
	"fmt"
	"strings"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// Ablations for the design choices DESIGN.md calls out. Each returns
// suite-average normalised (I-cache energy, ED) pairs on the
// 32KB/32-way cache. The layout and hint ablations use a deliberately
// tight 2KB way-placement area: with the paper's default 16KB area
// every benchmark's whole text is way-placed, so where code sits — and
// how often the fetch stream crosses the area boundary — only matters
// when the area is scarce.
//
// The hint, same-line and replacement ablations are ordinary engine
// cells (the switches ride on engine.RunSpec.OracleHint/NoSameLine and
// cache.Config.Policy), so they are memoised, coalesced into shared
// fetch passes, and runnable against a remote engine. Only the layout
// ablation's custom binaries (original, random, Pettis-Hansen) fall
// outside the engine's cell grid. None of them executes: each replays
// the engine's one recording of the workload (engine.Engine.Trace),
// relocated onto its binary unless that binary made it. Its
// profile-guided leg and every baseline still come from the engine's
// memoised run cache.

// AblationRow is one variant's result.
type AblationRow struct {
	Variant string
	Pair
}

// runVariant runs one cell on a given binary, normalised against the
// memoised baseline on the same geometry. On the cell's own binary
// (engine.UsesPlaced) the cell runs through the engine's memoised
// grid; on any other binary it replays the workload's recording there
// (runOn).
func (s *Suite) runVariant(ctx context.Context, w *Workload, cell engine.RunSpec, prog *obj.Program) (Pair, error) {
	baseRes, err := s.RunSpec(ctx, spec(w, cell.ICache, energy.Baseline, 0))
	if err != nil {
		return Pair{}, err
	}
	base := baseRes.Stats
	own := w.Original
	if engine.UsesPlaced(cell) {
		own = w.Placed
	}
	var rs *sim.RunStats
	if prog == own {
		res, err := s.RunSpec(ctx, cell)
		if err != nil {
			return Pair{}, err
		}
		rs = res.Stats
	} else if rs, err = s.runOn(ctx, w, cell, prog); err != nil {
		return Pair{}, err
	}
	if rs.Checksum != base.Checksum {
		return Pair{}, fmt.Errorf("%s: variant changed the checksum: %#x vs %#x",
			w.Name, rs.Checksum, base.Checksum)
	}
	return pairOf(rs, base), nil
}

// runOn evaluates one cell on prog, a layout of w's unit, on the
// machine the engine resolves the cell to, without executing prog: it
// replays the engine's recording of w, relocated onto prog unless prog
// made it.
func (s *Suite) runOn(ctx context.Context, w *Workload, cell engine.RunSpec, prog *obj.Program) (*sim.RunStats, error) {
	tr, err := s.eng.Trace(ctx, w.Name)
	if err != nil {
		return nil, err
	}
	cfg := engine.Resolve(s.machine(), cell)
	res, err := sim.ReplayMulti(ctx, tr, prog, cfg, []sim.ModelSpec{engine.ModelOf(cell, cfg)})
	if err != nil {
		return nil, err
	}
	if err := res[0].Err; err != nil {
		return nil, err
	}
	return res[0].Stats, nil
}

// averageLayout runs the tight-area way-placement cell on one binary
// per workload (in parallel) and averages in workload order, so the
// result is deterministic.
func (s *Suite) averageLayout(ctx context.Context, name string, binary func(*Workload) (*obj.Program, error)) (AblationRow, error) {
	row := AblationRow{Variant: name}
	pairs := make([]Pair, len(s.Workloads))
	idx := make(map[string]int, len(s.Workloads))
	for i, w := range s.Workloads {
		idx[w.Name] = i
	}
	err := s.forEach(ctx, func(ctx context.Context, w *Workload) error {
		prog, err := binary(w)
		if err != nil {
			return err
		}
		p, err := s.runVariant(ctx, w, tightCell(w), prog)
		if err != nil {
			return err
		}
		pairs[idx[w.Name]] = p
		return nil
	})
	if err != nil {
		return row, err
	}
	for _, p := range pairs {
		addPair(&row.Pair, p)
	}
	n := float64(len(s.Workloads))
	row.Energy /= n
	row.ED /= n
	return row, nil
}

// tightCell is the layout ablation's and profile transfer's
// way-placement cell: the XScale cache with the scarce area.
func tightCell(w *Workload) engine.RunSpec {
	return spec(w, XScaleICache(), energy.WayPlacement, tightWPSize)
}

// tightWPSize is the scarce way-placement area used by the layout and
// hint ablations.
const tightWPSize = 2 << 10

// flagVariant is one engine-expressible ablation variant: a cell
// template applied to every workload, normalised against a baseline
// cell on the same cache geometry.
type flagVariant struct {
	name     string
	template engine.RunSpec // Workload filled in per benchmark
}

func hintVariants() []flagVariant {
	wp := engine.RunSpec{ICache: XScaleICache(), Scheme: energy.WayPlacement, WPSize: tightWPSize}
	oracle := wp
	oracle.OracleHint = true
	return []flagVariant{
		{"1-bit way hint", wp},
		{"oracle hint", oracle},
	}
}

func sameLineVariants() []flagVariant {
	wp := engine.RunSpec{ICache: XScaleICache(), Scheme: energy.WayPlacement, WPSize: InitialWPSize}
	off := wp
	off.NoSameLine = true
	return []flagVariant{
		{"same-line skip on", wp},
		{"same-line skip off", off},
	}
}

func replacementVariants() []flagVariant {
	rr := engine.RunSpec{ICache: XScaleICache(), Scheme: energy.WayPlacement, WPSize: InitialWPSize}
	lru := rr
	lru.ICache.Policy = cache.LRU
	return []flagVariant{
		{"round-robin (XScale)", rr},
		{"true LRU", lru},
	}
}

// variantSpecs expands one variant into its grid: a baseline cell and
// a variant cell per workload, stride 2.
func (s *Suite) variantSpecs(v flagVariant) []engine.RunSpec {
	specs := make([]engine.RunSpec, 0, 2*len(s.Workloads))
	for _, w := range s.Workloads {
		cell := v.template
		cell.Workload = w.Name
		specs = append(specs, spec(w, v.template.ICache, energy.Baseline, 0), cell)
	}
	return specs
}

// averageGrid runs one engine-expressible variant across the suite as
// a single batch and averages the normalised pairs in workload order.
func (s *Suite) averageGrid(ctx context.Context, v flagVariant) (AblationRow, error) {
	row := AblationRow{Variant: v.name}
	res, err := s.RunBatch(ctx, s.variantSpecs(v))
	if err != nil {
		return row, err
	}
	for i, w := range s.Workloads {
		base, got := res[2*i].Stats, res[2*i+1].Stats
		if got.Checksum != base.Checksum {
			return row, fmt.Errorf("%s: variant changed the checksum: %#x vs %#x",
				w.Name, got.Checksum, base.Checksum)
		}
		addPair(&row.Pair, pairOf(got, base))
	}
	n := float64(len(s.Workloads))
	row.Energy /= n
	row.ED /= n
	return row, nil
}

// flagAblationRows runs a set of engine-expressible variants in order.
func (s *Suite) flagAblationRows(ctx context.Context, variants []flagVariant) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		row, err := s.averageGrid(ctx, v)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationLayout quantifies how much of the saving is the compiler
// pass itself: the way-placement hardware running over the profile-
// guided layout, the original layout, a random (constraint-
// respecting) permutation, and a classical Pettis/Hansen-style
// affinity layout (which optimises adjacency, not front-loading).
func (s *Suite) AblationLayout(ctx context.Context) ([]AblationRow, error) {
	variants := []struct {
		name string
		prog func(*Workload) (*obj.Program, error)
	}{
		{"profile-guided layout", func(w *Workload) (*obj.Program, error) { return w.Placed, nil }},
		{"original layout", func(w *Workload) (*obj.Program, error) { return w.Original, nil }},
		{"random layout", func(w *Workload) (*obj.Program, error) {
			return layout.LinkPermuted(w.Unit, 0xabcdef, TextBase)
		}},
		{"Pettis-Hansen affinity", func(w *Workload) (*obj.Program, error) {
			return layout.LinkPettisHansen(w.Unit, w.Profile, TextBase)
		}},
	}
	var rows []AblationRow
	for _, v := range variants {
		row, err := s.averageLayout(ctx, v.name, v.prog)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationHint compares the 1-bit way hint against oracle knowledge
// of the way-placement bit — the cost of predicting instead of
// serialising on the I-TLB.
func (s *Suite) AblationHint(ctx context.Context) ([]AblationRow, error) {
	return s.flagAblationRows(ctx, hintVariants())
}

// AblationSameLine measures the contribution of the same-line
// tag-check skip (section 4.2's "further modification").
func (s *Suite) AblationSameLine(ctx context.Context) ([]AblationRow, error) {
	return s.flagAblationRows(ctx, sameLineVariants())
}

// AblationReplacement checks that the scheme is insensitive to the
// replacement policy (explicit placement bypasses it for hot lines).
func (s *Suite) AblationReplacement(ctx context.Context) ([]AblationRow, error) {
	return s.flagAblationRows(ctx, replacementVariants())
}

// FormatAblation renders ablation rows.
func FormatAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s (suite average, 32KB/32-way)\n", title)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-24s I$ energy %.1f%%  ED %.3f\n", r.Variant, 100*r.Energy, r.ED)
	}
	return sb.String()
}
