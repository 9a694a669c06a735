package experiment

import (
	"context"
	"fmt"
	"strings"

	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/layout"
	"wayplace/internal/sim"
)

// Extensions beyond the paper's evaluation, exercising two claims its
// text makes but does not measure:
//
//   - section 4.2: "our scheme could also easily be applied to a
//     standard RAM cache" — ExtensionRAMTag quantifies the saving on a
//     conventional parallel-read SRAM organisation, where eliminating
//     W-1 ways removes data-array reads as well as tag reads;
//   - section 4.1: the OS can adjust the area "during program
//     execution" — ExtensionAdaptive runs the adaptive-OS policy and
//     compares it with the best static area size.

// RAMRow is one configuration of the RAM-tag extension.
type RAMRow struct {
	Ways     int
	Style    energy.ArrayStyle
	WayPlace Pair
}

// ramTagPoints are the organisations the RAM-tag extension evaluates:
// the associativities conventional RAM-tag caches are actually built
// with (4/8-way) alongside the XScale CAM points.
var ramTagPoints = []struct {
	ways  int
	style energy.ArrayStyle
}{
	{4, energy.RAMTag},
	{8, energy.RAMTag},
	{8, energy.CAMTag},
	{32, energy.CAMTag},
}

// ramTagSpecs is the RAM-tag extension's grid: baseline and 16KB
// way-placement per organisation per benchmark, organisation-major,
// stride 2. The array style rides on each spec (engine.RunSpec.Style),
// so the whole extension is one batch — the run cache keys on the full
// resolved config, so CAM and RAM cells never alias, while same-
// geometry CAM and RAM cells share one fetch pass when coalesced.
func (s *Suite) ramTagSpecs() []engine.RunSpec {
	specs := make([]engine.RunSpec, 0, 2*len(ramTagPoints)*len(s.Workloads))
	for _, rc := range ramTagPoints {
		icfg := cache.Config{SizeBytes: 32 << 10, Ways: rc.ways, LineBytes: 32, Policy: cache.RoundRobin}
		for _, w := range s.Workloads {
			b := spec(w, icfg, energy.Baseline, 0)
			b.Style = rc.style
			p := spec(w, icfg, energy.WayPlacement, InitialWPSize)
			p.Style = rc.style
			specs = append(specs, b, p)
		}
	}
	return specs
}

// ExtensionRAMTag evaluates way-placement on conventional RAM-tag
// caches, averaged over the suite. The baseline for each row uses the
// same array style.
func (s *Suite) ExtensionRAMTag(ctx context.Context) ([]RAMRow, error) {
	res, err := s.RunBatch(ctx, s.ramTagSpecs())
	if err != nil {
		return nil, err
	}
	rows := make([]RAMRow, 0, len(ramTagPoints))
	n := float64(len(s.Workloads))
	for ri, rc := range ramTagPoints {
		row := RAMRow{Ways: rc.ways, Style: rc.style}
		off := 2 * len(s.Workloads) * ri
		for i := range s.Workloads {
			addPair(&row.WayPlace, pairOf(res[off+2*i+1].Stats, res[off+2*i].Stats))
		}
		row.WayPlace.Energy /= n
		row.WayPlace.ED /= n
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatRAMTag renders the RAM-tag extension rows.
func FormatRAMTag(rows []RAMRow) string {
	var sb strings.Builder
	sb.WriteString("Extension: way-placement on RAM-tag vs CAM-tag arrays (32KB, suite average)\n")
	fmt.Fprintf(&sb, "  %-22s %12s %8s\n", "organisation", "I$ energy", "ED")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %2d-way %-14s %11.1f%% %8.3f\n",
			r.Ways, r.Style, 100*r.WayPlace.Energy, r.WayPlace.ED)
	}
	sb.WriteString("  (RAM-tag caches read every way's data in parallel, so naming the way\n")
	sb.WriteString("   eliminates data-array reads too — section 4.2's 'standard RAM cache')\n")
	return sb.String()
}

// AdaptiveRow is one benchmark's adaptive-sizing outcome.
type AdaptiveRow struct {
	Bench     string
	Static    Pair // best static size for this machine (16KB)
	Adaptive  Pair
	FinalSize uint32
	Resizes   int
}

// adaptiveSpecs is the adaptive extension's grid: baseline, static
// 16KB way-placement and the adaptive policy per benchmark, stride 3.
func (s *Suite) adaptiveSpecs() []engine.RunSpec {
	icfg := XScaleICache()
	adaptive := engine.AdaptiveSpecOf(sim.DefaultAdaptivePolicy(icfg, s.Base.ITLB.PageBytes))
	specs := make([]engine.RunSpec, 0, 3*len(s.Workloads))
	for _, w := range s.Workloads {
		specs = append(specs,
			spec(w, icfg, energy.Baseline, 0),
			spec(w, icfg, energy.WayPlacement, InitialWPSize),
			engine.RunSpec{Workload: w.Name, ICache: icfg, Scheme: energy.WayPlacement, Adaptive: adaptive})
	}
	return specs
}

// ExtensionAdaptive runs the adaptive OS policy (starting from one
// page) on each workload and compares it with the static 16KB area.
// Adaptive cells are first-class grid members (engine.RunSpec.Adaptive),
// so the whole comparison is one parallel, memoised batch.
func (s *Suite) ExtensionAdaptive(ctx context.Context) ([]AdaptiveRow, error) {
	const stride = 3 // baseline, static WP, adaptive WP
	res, err := s.RunBatch(ctx, s.adaptiveSpecs())
	if err != nil {
		return nil, err
	}
	rows := make([]AdaptiveRow, len(s.Workloads))
	for i, w := range s.Workloads {
		base, static, ad := res[stride*i].Stats, res[stride*i+1].Stats, res[stride*i+2]
		if ad.Stats.Checksum != base.Checksum {
			return nil, fmt.Errorf("%s: adaptive run changed the checksum", w.Name)
		}
		changes := ad.AreaChanges
		if len(changes) == 0 {
			return nil, fmt.Errorf("%s: adaptive cell returned no resize trace", w.Name)
		}
		rows[i] = AdaptiveRow{
			Bench:     w.Name,
			Static:    pairOf(static, base),
			Adaptive:  pairOf(ad.Stats, base),
			FinalSize: changes[len(changes)-1].Size,
			Resizes:   len(changes) - 1,
		}
	}
	return rows, nil
}

// FormatAdaptive renders the adaptive extension rows.
func FormatAdaptive(rows []AdaptiveRow) string {
	var sb strings.Builder
	sb.WriteString("Extension: OS-adaptive way-placement area (32KB/32-way; policy starts at 1KB)\n")
	fmt.Fprintf(&sb, "  %-12s %12s %12s %10s %8s\n",
		"benchmark", "static 16KB", "adaptive", "final area", "resizes")
	var sSum, aSum float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-12s %11.1f%% %11.1f%% %9dK %8d\n",
			r.Bench, 100*r.Static.Energy, 100*r.Adaptive.Energy, r.FinalSize>>10, r.Resizes)
		sSum += r.Static.Energy
		aSum += r.Adaptive.Energy
	}
	n := float64(len(rows))
	fmt.Fprintf(&sb, "  %-12s %11.1f%% %11.1f%%\n", "average", 100*sSum/n, 100*aSum/n)
	return sb.String()
}

// TransferRow quantifies profile transfer for one benchmark: the
// paper trains on the small input and evaluates on the large one, so
// the layout's quality depends on the profile generalising.
type TransferRow struct {
	Bench string
	// Coverage of a 2KB area under the large-input (oracle) run's own
	// dynamic behaviour, for the small-profile layout and an oracle
	// layout built from the large-input profile itself.
	SmallProfile  Pair
	OracleProfile Pair
}

// ExtensionProfileTransfer measures how much is lost by training on
// the small input instead of the evaluation input (which the paper's
// methodology — and ours — forbids using). Both layouts run under a
// scarce 2KB area where layout quality matters.
func (s *Suite) ExtensionProfileTransfer(ctx context.Context) ([]TransferRow, error) {
	icfg := XScaleICache()
	rows := make([]TransferRow, len(s.Workloads))
	idx := make(map[string]int)
	for i, w := range s.Workloads {
		idx[w.Name] = i
	}
	err := s.forEach(ctx, func(ctx context.Context, w *Workload) error {
		baseRes, err := s.RunSpec(ctx, spec(w, icfg, energy.Baseline, 0))
		if err != nil {
			return err
		}
		base := baseRes.Stats
		// Oracle: profile the large input itself, off the workload's
		// recording, then relink.
		tr, err := s.eng.Trace(ctx, w.Name)
		if err != nil {
			return err
		}
		prof, err := tr.Profile()
		if err != nil {
			return err
		}
		oracleProg, err := layout.Link(w.Unit, prof, TextBase)
		if err != nil {
			return err
		}
		cell := tightCell(w)
		small, err := s.runVariant(ctx, w, cell, w.Placed)
		if err != nil {
			return err
		}
		oracleRun, err := s.runOn(ctx, w, cell, oracleProg)
		if err != nil {
			return err
		}
		if oracleRun.Checksum != base.Checksum {
			return fmt.Errorf("%s: oracle layout changed the checksum", w.Name)
		}
		rows[idx[w.Name]] = TransferRow{
			Bench:         w.Name,
			SmallProfile:  small,
			OracleProfile: pairOf(oracleRun, base),
		}
		return nil
	})
	return rows, err
}

// FormatTransfer renders the profile-transfer rows.
func FormatTransfer(rows []TransferRow) string {
	var sb strings.Builder
	sb.WriteString("Extension: profile transfer, small-input training vs large-input oracle\n")
	sb.WriteString("(32KB/32-way, scarce 2KB area so layout quality matters)\n")
	fmt.Fprintf(&sb, "  %-12s %14s %14s %8s\n", "benchmark", "small profile", "oracle profile", "gap")
	var sSum, oSum float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-12s %13.1f%% %13.1f%% %7.2f%%\n",
			r.Bench, 100*r.SmallProfile.Energy, 100*r.OracleProfile.Energy,
			100*(r.SmallProfile.Energy-r.OracleProfile.Energy))
		sSum += r.SmallProfile.Energy
		oSum += r.OracleProfile.Energy
	}
	n := float64(len(rows))
	fmt.Fprintf(&sb, "  %-12s %13.1f%% %13.1f%% %7.2f%%\n", "average",
		100*sSum/n, 100*oSum/n, 100*(sSum-oSum)/n)
	return sb.String()
}
