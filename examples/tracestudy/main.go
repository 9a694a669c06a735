// Tracestudy characterises the fetch streams of several benchmarks —
// the stream properties (hot-line concentration, same-line run
// lengths, prefix coverage) that determine how much each scheme can
// save. It is the measurement behind the paper's premise that "the
// most frequently executed instructions cause the majority of
// instruction cache accesses".
//
// Run with:
//
//	go run ./examples/tracestudy [bench ...]
package main

import (
	"context"
	"fmt"
	"os"

	"wayplace/internal/experiment"
	"wayplace/internal/sim"
	"wayplace/internal/trace"
)

func main() {
	names := []string{"crc", "sha", "susan_c", "patricia", "tiffmedian"}
	if len(os.Args) > 1 {
		names = os.Args[1:]
	}

	fmt.Printf("%-12s %9s %9s %9s %9s %11s\n",
		"benchmark", "fetches", "ws lines", "90% conc", "mean run", "1KB prefix")
	for _, name := range names {
		w, err := experiment.Prepare(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracestudy: %v\n", err)
			os.Exit(1)
		}
		cfg := sim.Default()
		cfg.MaxInstrs = experiment.MaxInstrs
		addrs, err := trace.Addrs(context.Background(), w.Placed, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracestudy: %s: %v\n", name, err)
			os.Exit(1)
		}
		lb := cfg.ICache.LineBytes
		fmt.Printf("%-12s %9d %9d %9d %9.2f %10.1f%%\n",
			name,
			len(addrs),
			trace.WorkingSet(addrs, lb),
			trace.Concentration(addrs, lb, 0.90),
			trace.MeanRunLength(addrs, lb),
			100*trace.PrefixCoverage(addrs, w.Placed.Base, 1<<10))
	}
	fmt.Println("\nws = working set; conc = lines covering 90% of fetches;")
	fmt.Println("prefix coverage is over the way-placement layout, so a hot")
	fmt.Println("1KB area already captures most fetches for small kernels.")
}
