// Adaptivewp demonstrates the paper's OS extension (section 4.1): the
// way-placement area can be adjusted during program execution without
// recompiling — the layout already ordered code best-first, so any
// prefix of the binary is a valid area. An adaptive OS policy starts
// from a single 1KB page, watches the fraction of fetches landing in
// the area, and grows it until the hot code is covered.
//
// Run with:
//
//	go run ./examples/adaptivewp [benchmark]
package main

import (
	"context"
	"fmt"
	"os"

	"wayplace/internal/energy"
	"wayplace/internal/experiment"
	"wayplace/internal/sim"
)

func main() {
	name := "rijndael_e" // ~4.9KB of hot code: several growth steps
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w, err := experiment.Prepare(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptivewp: %v\n", err)
		os.Exit(1)
	}

	cfg := sim.Default()
	cfg.MaxInstrs = experiment.MaxInstrs
	base, err := sim.RunContext(context.Background(), w.Original, cfg)
	if err != nil {
		panic(err)
	}
	staticCfg := cfg
	staticCfg.Scheme = energy.WayPlacement
	staticCfg.WPSize = experiment.InitialWPSize
	static, err := sim.RunContext(context.Background(), w.Placed, staticCfg)
	if err != nil {
		panic(err)
	}

	pol := sim.DefaultAdaptivePolicy(cfg.ICache, cfg.ITLB.PageBytes)
	adaptive, changes, err := sim.RunAdaptive(context.Background(), w.Placed, cfg, pol)
	if err != nil {
		panic(err)
	}
	if adaptive.Checksum != base.Checksum {
		panic("adaptive resizing changed the program's result")
	}

	fmt.Printf("%s: OS area trajectory (decision every %d instructions)\n", name, pol.IntervalInstrs)
	for _, ch := range changes {
		fmt.Printf("  @%9d instrs: area -> %2dKB\n", ch.AtInstr, ch.Size>>10)
	}
	fmt.Printf("\nI-cache energy vs baseline:\n")
	fmt.Printf("  static 16KB area: %.1f%%\n", 100*energy.NormICache(static.Energy, base.Energy))
	fmt.Printf("  adaptive area:    %.1f%%  (final size %dKB, %d resizes, %d flushes)\n",
		100*energy.NormICache(adaptive.Energy, base.Energy),
		changes[len(changes)-1].Size>>10, len(changes)-1, adaptive.IStats.Flushes)
	fmt.Printf("  checksum %#x identical in all runs\n", adaptive.Checksum)
}
