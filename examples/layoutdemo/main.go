// Layoutdemo walks the paper's full compiler flow on a program built
// with the public program-builder API: write a program, profile it on
// a training input, relink it with the way-placement pass and watch
// the hot code migrate to the front of the binary — then simulate both
// layouts and compare instruction-cache energy.
//
// Run with:
//
//	go run ./examples/layoutdemo
package main

import (
	"context"
	"fmt"

	"wayplace/internal/asm"
	"wayplace/internal/energy"
	"wayplace/internal/isa"
	"wayplace/internal/layout"
	"wayplace/internal/sim"
)

// buildApp constructs a small application whose source order is
// pessimal: initialisation and rarely-used command handlers come
// first, the hot scoring kernel last — the situation the paper's
// pass exists to fix.
func buildApp(iters uint16) *asm.Builder {
	b := asm.NewBuilder("demo")
	table := b.Words(7, 11, 13, 17, 19, 23, 29, 31)
	buf := b.Zeros(512)

	f := b.Func("main")
	f.Call("setup")
	f.Movi(isa.R5, iters)
	f.Block("outer")
	f.Call("score") // hot
	f.Subi(isa.R5, isa.R5, 1)
	f.Cmpi(isa.R5, 0)
	f.Bgt("outer")
	f.Halt()

	// Cold command handlers — none of them run on this input, but in
	// source order they occupy the first ~4KB of the binary, burying
	// the hot kernel (real applications look like this: most text is
	// cold).
	for i := 0; i < 16; i++ {
		h := b.Func(fmt.Sprintf("handler_%d", i))
		for k := 0; k < 60; k++ {
			h.Addi(isa.R9, isa.R9, int32(k))
		}
		h.Ret()
	}

	s := b.Func("setup")
	s.Li(isa.R1, buf)
	s.Movi(isa.R2, 128)
	s.Movi(isa.R3, 3)
	s.Block("fill")
	s.Str(isa.R3, isa.R1, 0)
	s.Addi(isa.R1, isa.R1, 4)
	s.Addi(isa.R3, isa.R3, 5)
	s.Subi(isa.R2, isa.R2, 1)
	s.Cmpi(isa.R2, 0)
	s.Bgt("fill")
	s.Ret()

	// The hot kernel: table-driven scoring over the buffer.
	k := b.Func("score")
	k.Li(isa.R1, buf)
	k.Li(isa.R6, table)
	k.Movi(isa.R2, 128)
	k.Block("loop")
	k.Ldr(isa.R3, isa.R1, 0)
	k.OpI(isa.ANDI, isa.R4, isa.R3, 28)
	k.Ldrx(isa.R4, isa.R6, isa.R4)
	k.Mul(isa.R3, isa.R3, isa.R4)
	k.Add(isa.R0, isa.R0, isa.R3)
	k.Addi(isa.R1, isa.R1, 4)
	k.Subi(isa.R2, isa.R2, 1)
	k.Cmpi(isa.R2, 0)
	k.Bgt("loop")
	k.Ret()

	return b
}

func main() {
	const base = 0x0001_0000

	// 1. Profile on the training input (small iteration count).
	small := buildApp(50).MustBuild()
	smallProg, err := layout.LinkOriginal(small, base)
	if err != nil {
		panic(err)
	}
	prof, _, err := sim.ProfileRun(smallProg, 10_000_000)
	if err != nil {
		panic(err)
	}

	// 2. Relink the reference build with the way-placement ordering.
	large := buildApp(2000).MustBuild()
	orig, err := layout.LinkOriginal(large, base)
	if err != nil {
		panic(err)
	}
	placed, err := layout.Link(large, prof, base)
	if err != nil {
		panic(err)
	}

	fmt.Println("where did the hot kernel land?")
	for _, sym := range []string{"score", "handler_0", "setup", "main"} {
		o, _ := orig.AddrOf(sym)
		p, _ := placed.AddrOf(sym)
		fmt.Printf("  %-10s original %#06x -> placed %#06x\n", sym, o, p)
	}
	fmt.Printf("1KB-area coverage: original %.1f%%, placed %.1f%%\n\n",
		100*layout.Coverage(orig, prof, 1<<10),
		100*layout.Coverage(placed, prof, 1<<10))

	// 3. Simulate both layouts under the way-placement scheme with a
	// deliberately small 1KB area, plus the baseline.
	cfg := sim.Default()
	cfg.MaxInstrs = 100_000_000
	baseRun, err := sim.RunContext(context.Background(), orig, cfg)
	if err != nil {
		panic(err)
	}
	wpCfg := cfg
	wpCfg.Scheme = energy.WayPlacement
	wpCfg.WPSize = 1 << 10
	origRun, err := sim.RunContext(context.Background(), orig, wpCfg)
	if err != nil {
		panic(err)
	}
	placedRun, err := sim.RunContext(context.Background(), placed, wpCfg)
	if err != nil {
		panic(err)
	}
	if origRun.Checksum != placedRun.Checksum || origRun.Checksum != baseRun.Checksum {
		panic("layouts changed program semantics")
	}

	fmt.Println("way-placement hardware, 32KB/32-way cache, 1KB WP area:")
	fmt.Printf("  original layout: I$ energy %.1f%% of baseline\n",
		100*energy.NormICache(origRun.Energy, baseRun.Energy))
	fmt.Printf("  placed layout:   I$ energy %.1f%% of baseline\n",
		100*energy.NormICache(placedRun.Energy, baseRun.Energy))
	fmt.Printf("  (checksum %#x identical across all runs)\n", placedRun.Checksum)
}
