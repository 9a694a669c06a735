package engine

import (
	"fmt"
	"strings"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/sim"
)

// This file is the cell grammar: which cells exist (RunSpec.Validate)
// and what machine each one runs (Resolve, UsesPlaced, ModelOf). The
// wire schema (internal/api), the experiment suite, the differential
// harness and the CLIs all resolve cells here, so no two of them can
// disagree on what a cell means.

// RunSpec identifies one simulation cell of the evaluation grid. It is
// comparable (usable as a map key) and has a canonical serialized form
// (Key) stable across processes; internal/api carries the same
// information as a versioned JSON schema.
type RunSpec struct {
	Workload string
	ICache   cache.Config
	Scheme   energy.Scheme
	// WPSize is the static way-placement area (way-placement only).
	WPSize uint32
	// Style selects the cache's physical array organisation for the
	// energy model. The zero value (CAM-tag) inherits the base
	// template's style; RAMTag overrides it, so RAM-tag cells can sit
	// in the same batch — and the same single-pass group — as CAM
	// cells.
	Style energy.ArrayStyle
	// OracleHint and NoSameLine are the way-placement ablation
	// switches (perfect way prediction; same-line skip disabled). They
	// extend the base template: a switch set in either place is on.
	OracleHint bool
	NoSameLine bool
	// Adaptive, when non-zero, runs the cell under the adaptive-OS
	// area-sizing policy instead of a static WP area: the cell's model
	// in its single-pass group is an adaptive one (sim.ModelSpec's
	// Adaptive) over the relaid binary. The scheme must be
	// way-placement and WPSize zero — the area is policy-driven.
	Adaptive AdaptiveSpec
}

// variantSuffix renders the ablation/style markers shared by String
// and error messages; empty for a plain cell.
func (s RunSpec) variantSuffix() string {
	var suffix string
	if s.Style == energy.RAMTag {
		suffix += "+ramtag"
	}
	if s.OracleHint {
		suffix += "+oracle"
	}
	if s.NoSameLine {
		suffix += "+nosameline"
	}
	return suffix
}

func (s RunSpec) String() string {
	if s.Adaptive.Enabled() {
		return fmt.Sprintf("%s/%dKB-%dway/%v/adaptive%s",
			s.Workload, s.ICache.SizeBytes>>10, s.ICache.Ways, energy.WayPlacement, s.variantSuffix())
	}
	if s.WPSize > 0 {
		return fmt.Sprintf("%s/%dKB-%dway/%v/wp%dK%s",
			s.Workload, s.ICache.SizeBytes>>10, s.ICache.Ways, s.Scheme, s.WPSize>>10, s.variantSuffix())
	}
	return fmt.Sprintf("%s/%dKB-%dway/%v%s",
		s.Workload, s.ICache.SizeBytes>>10, s.ICache.Ways, s.Scheme, s.variantSuffix())
}

// Violation is one rule a cell breaks: the RunSpec field at fault, as
// a dotted Go path ("WPSize", "Adaptive.StartSize"), and what is wrong
// with it.
type Violation struct {
	Field   string
	Message string
}

// SpecError lists every rule a cell breaks, in a fixed order, so a
// caller can report all of them at once (internal/api maps each field
// to its JSON path).
type SpecError struct {
	Violations []Violation
}

func (e *SpecError) Error() string {
	msgs := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		msgs[i] = v.Field + ": " + v.Message
	}
	return "invalid cell: " + strings.Join(msgs, "; ")
}

// Validate checks the cross-field rules that make a spec a cell of the
// paper's grid: a valid I-cache geometry; the WP area and the ablation
// switches only on way-placement cells; and an adaptive cell that is
// way-placement with a policy-driven area, the paper's scheme as is
// (no ablation switch, no RAM-tag array) and a positive interval and
// start size. A spec breaking any rule would alias a valid cell — its
// extra field changes its key but not its statistics — so the engine
// refuses it (Run fails it as a CellError). It returns nil or a
// *SpecError.
func (s RunSpec) Validate() error {
	var vs []Violation
	add := func(field, format string, args ...any) {
		vs = append(vs, Violation{Field: field, Message: fmt.Sprintf(format, args...)})
	}
	if err := s.ICache.Validate(); err != nil {
		add("ICache", "%v", err)
	}
	wp := energy.WayPlacement.String()
	isWP := s.Scheme == energy.WayPlacement
	if s.WPSize > 0 && !isWP {
		add("WPSize", "only valid with scheme %q", wp)
	}
	if s.OracleHint && !isWP {
		add("OracleHint", "only valid with scheme %q", wp)
	}
	if s.NoSameLine && !isWP {
		add("NoSameLine", "only valid with scheme %q", wp)
	}
	if a := s.Adaptive; a.Enabled() {
		if !isWP {
			add("Adaptive", "only valid with scheme %q", wp)
		}
		if s.WPSize > 0 {
			add("WPSize", "must be 0 for adaptive cells (the area is policy-driven)")
		}
		if s.OracleHint {
			add("OracleHint", "not valid for adaptive cells")
		}
		if s.NoSameLine {
			add("NoSameLine", "not valid for adaptive cells")
		}
		if s.Style == energy.RAMTag {
			add("Style", "%q not valid for adaptive cells", energy.RAMTag.String())
		}
		if a.IntervalInstrs == 0 {
			add("Adaptive.IntervalInstrs", "must be positive")
		}
		if a.StartSize == 0 {
			add("Adaptive.StartSize", "must be positive")
		}
	}
	if len(vs) > 0 {
		return &SpecError{Violations: vs}
	}
	return nil
}

// Resolve applies a valid spec to the base machine template: the
// configuration the cell is memoised under and verified against.
// Adaptive cells resolve with the policy's start size as the area —
// the area the adaptive model installs before the first OS decision,
// so verifiers see the machine the run actually began on.
// Reference runners outside the engine (check.Coupled) resolve specs
// here too, so the two never disagree on what a spec means.
func Resolve(base sim.Config, spec RunSpec) sim.Config {
	base.ICache = spec.ICache
	base.Scheme = spec.Scheme
	base.WPSize = spec.WPSize
	// The spec's variant fields extend the template rather than reset
	// it: a zero-valued spec leaves a base-config style or ablation
	// switch in force, so batches run against a specialised template
	// keep their meaning.
	if spec.Style != 0 {
		base.Style = spec.Style
	}
	base.OracleHint = base.OracleHint || spec.OracleHint
	base.NoSameLine = base.NoSameLine || spec.NoSameLine
	if spec.Adaptive.Enabled() {
		base.WPSize = spec.Adaptive.StartSize
	}
	return base
}

// UsesPlaced reports which binary a valid cell fetches from: the
// relaid image for way-placement (static or adaptive), the original
// layout otherwise.
func UsesPlaced(spec RunSpec) bool {
	return spec.Scheme == energy.WayPlacement
}

// Stream names the fetch stream the cell consumes: its workload and
// the binary it fetches from, "<workload>/original" or
// "<workload>/placed". Cells with equal streams see the same
// instruction fetches, so they coalesce into one single-pass group (the
// name is that group's GroupID). It is not a routing key: the fleet
// routes by Workload, whose one recording serves both streams.
func (s RunSpec) Stream() string {
	if UsesPlaced(s) {
		return s.Workload + "/placed"
	}
	return s.Workload + "/original"
}

// ModelOf translates one cell into the instruction-side cache model
// it contributes to a single-pass group. cfg must be the cell's
// resolved configuration (Resolve).
func ModelOf(spec RunSpec, cfg sim.Config) sim.ModelSpec {
	if spec.Adaptive.Enabled() {
		pol := spec.Adaptive.Policy()
		return sim.ModelSpec{Geometry: cfg.ICache, Adaptive: &pol}
	}
	return sim.ModelSpecOf(cfg)
}
