// Command waysim runs one benchmark of the suite on the simulated
// platform under a chosen fetch scheme and prints the detailed
// statistics behind the paper's figures.
//
// Usage:
//
//	waysim -bench crc [-scheme baseline|wayplace|waymem]
//	       [-size 32] [-ways 32] [-wp 16] [-layout placed|original]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"wayplace/internal/api"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/engine"
	"wayplace/internal/experiment"
	"wayplace/internal/sim"
	"wayplace/internal/trace"
)

func main() {
	name := flag.String("bench", "crc", "benchmark name (see wpbench for the list)")
	scheme := flag.String("scheme", "wayplace", "fetch scheme: baseline, wayplace or waymem")
	sizeKB := flag.Int("size", 32, "I-cache size in KB")
	ways := flag.Int("ways", 32, "I-cache associativity")
	wpKB := flag.Int("wp", 16, "way-placement area size in KB (wayplace only)")
	layoutSel := flag.String("layout", "", "binary layout: placed (default for wayplace) or original")
	doTrace := flag.Bool("trace", false, "record the fetch stream and print a trace analysis")
	flag.Parse()

	// The cell is validated before anything is built: a bad geometry or
	// scheme fails at once, not after the workload is prepared.
	spec := engine.RunSpec{
		Workload: *name,
		ICache:   cache.Config{SizeBytes: *sizeKB << 10, Ways: *ways, LineBytes: 32, Policy: cache.RoundRobin},
	}
	var err error
	if spec.Scheme, err = api.ParseScheme(*scheme); err != nil {
		fail(err)
	}
	if spec.Scheme == energy.WayPlacement {
		spec.WPSize = uint32(*wpKB) << 10
	}
	if err := spec.Validate(); err != nil {
		fail(err)
	}
	base := sim.Default()
	base.MaxInstrs = experiment.MaxInstrs
	cfg := engine.Resolve(base, spec)
	baseCfg := engine.Resolve(base, engine.RunSpec{Workload: spec.Workload, ICache: spec.ICache, Scheme: energy.Baseline})

	w, err := experiment.Prepare(*name)
	if err != nil {
		fail(err)
	}
	prog := w.Original
	if engine.UsesPlaced(spec) {
		prog = w.Placed
	}
	switch *layoutSel {
	case "":
	case "placed":
		prog = w.Placed
	case "original":
		prog = w.Original
	default:
		fail(fmt.Errorf("unknown layout %q", *layoutSel))
	}

	rs, err := sim.RunContext(context.Background(), prog, cfg)
	if err != nil {
		fail(err)
	}
	baseRun, err := sim.RunContext(context.Background(), w.Original, baseCfg)
	if err != nil {
		fail(err)
	}

	var addrs []uint32
	if *doTrace {
		// The analysis is about the address stream, which is
		// scheme-independent.
		if addrs, err = trace.Addrs(context.Background(), prog, cfg); err != nil {
			fail(err)
		}
	}

	fmt.Printf("%s on %dKB/%d-way I-cache, scheme %s\n", *name, *sizeKB, *ways, *scheme)
	fmt.Printf("  instructions        %12d\n", rs.Instrs)
	fmt.Printf("  cycles              %12d  (CPI %.3f)\n", rs.Cycles, rs.CPI())
	fmt.Printf("  checksum            %#12x\n", rs.Checksum)
	s := rs.IStats
	fmt.Printf("I-cache events\n")
	fmt.Printf("  fetches             %12d\n", s.Fetches)
	fmt.Printf("  same-line skips     %12d  (%.1f%%)\n", s.SameLineHits, pct(s.SameLineHits, s.Fetches))
	fmt.Printf("  full searches       %12d  (%.1f%%)\n", s.FullSearches, pct(s.FullSearches, s.Fetches))
	fmt.Printf("  single-tag probes   %12d  (%.1f%%)\n", s.SingleSearches, pct(s.SingleSearches, s.Fetches))
	fmt.Printf("  linked accesses     %12d  (%.1f%%)\n", s.LinkedAccesses, pct(s.LinkedAccesses, s.Fetches))
	fmt.Printf("  tag comparisons     %12d  (%.2f per fetch)\n", s.TagComparisons,
		float64(s.TagComparisons)/float64(max64(s.Fetches, 1)))
	fmt.Printf("  misses              %12d  (%.3f%%)\n", s.Misses, 100*s.MissRate())
	if cfg.Scheme == energy.WayPlacement {
		fmt.Printf("  WP-area fetches     %12d  (%.1f%%)\n", s.WPAreaFetches, pct(s.WPAreaFetches, s.Fetches))
		wrong := s.HintMissedSaving + s.HintExtraAccess
		fmt.Printf("  way-hint wrong      %12d  (%.4f%%)\n", wrong, pct(wrong, s.Fetches))
		fmt.Printf("  designated fills    %12d\n", s.DesignatedFills)
	}
	if cfg.Scheme == energy.WayMemoization {
		fmt.Printf("  link writes         %12d\n", s.LinkWrites)
		fmt.Printf("  stale links         %12d\n", s.StaleLinks)
	}
	fmt.Printf("energy (arbitrary units)\n")
	fmt.Printf("  I-cache             %14.0f  (%.1f%% of baseline I-cache)\n",
		rs.Energy.ICache(), 100*energy.NormICache(rs.Energy, baseRun.Energy))
	fmt.Printf("    tag               %14.0f\n", rs.Energy.ICacheTag)
	fmt.Printf("    data              %14.0f\n", rs.Energy.ICacheData)
	fmt.Printf("    fills             %14.0f\n", rs.Energy.ICacheFill)
	fmt.Printf("    links             %14.0f\n", rs.Energy.ICacheLink)
	fmt.Printf("  processor total     %14.0f\n", rs.Energy.Total())
	fmt.Printf("  ED product vs base  %14.3f\n",
		energy.EDProduct(rs.Energy, rs.Cycles, baseRun.Energy, baseRun.Cycles))
	if *doTrace {
		fmt.Printf("fetch-trace analysis (%dB lines)\n", cfg.ICache.LineBytes)
		fmt.Print(indent(trace.Summary(addrs, cfg.ICache.LineBytes, prog.Base)))
	}
}

func indent(s string) string {
	out := ""
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		out += "  " + line + "\n"
	}
	return out
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "waysim: %v\n", err)
	os.Exit(1)
}
