// Package trace captures and analyses instruction-fetch address
// streams. The paper's argument rests on properties of the fetch
// stream — hot-line concentration, sequential run lengths, working-set
// size — and this package makes them measurable on any program: read
// its stream with Addrs, then analyse.
package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"wayplace/internal/cpu"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// Addrs executes prog on the machine base describes and returns its
// fetch addresses, one per retired instruction in execution order. It
// reads the simulator's own fetch source (sim.NewFetchSource), so the
// stream is exactly the one every fetch scheme's model consumes; the
// addresses do not depend on the scheme or the I-cache.
func Addrs(ctx context.Context, prog *obj.Program, base sim.Config) ([]uint32, error) {
	src, err := sim.NewFetchSource(prog, base, min(base.ICache.LineBytes, base.ITLB.PageBytes))
	if err != nil {
		return nil, err
	}
	var addrs []uint32
	for {
		ch, err := src.NextChunk(ctx)
		if err != nil {
			return nil, err
		}
		if ch == nil {
			return addrs, nil
		}
		for _, sg := range ch.Segs {
			for k, addr := uint32(0), cpu.EventAddr(sg.Word); k < sg.N; k++ {
				addrs = append(addrs, addr+4*k)
			}
		}
	}
}

// lineOf returns the line address for the given line size.
func lineOf(addr uint32, lineBytes int) uint32 {
	return addr &^ uint32(lineBytes-1)
}

// WorkingSet returns the number of distinct cache lines touched.
func WorkingSet(addrs []uint32, lineBytes int) int {
	seen := make(map[uint32]struct{})
	for _, a := range addrs {
		seen[lineOf(a, lineBytes)] = struct{}{}
	}
	return len(seen)
}

// LineCount is one line's fetch count.
type LineCount struct {
	Line  uint32
	Count uint64
}

// Hottest returns the top-n lines by fetch count, descending
// (ties broken by address for determinism).
func Hottest(addrs []uint32, lineBytes, n int) []LineCount {
	counts := make(map[uint32]uint64)
	for _, a := range addrs {
		counts[lineOf(a, lineBytes)]++
	}
	out := make([]LineCount, 0, len(counts))
	for l, c := range counts {
		out = append(out, LineCount{Line: l, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Line < out[j].Line
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Concentration returns the smallest number of lines covering the
// given fraction of all fetches — the quantity the way-placement area
// must capture.
func Concentration(addrs []uint32, lineBytes int, fraction float64) int {
	hot := Hottest(addrs, lineBytes, 1<<31-1)
	target := uint64(fraction * float64(len(addrs)))
	var acc uint64
	for i, lc := range hot {
		acc += lc.Count
		if acc >= target {
			return i + 1
		}
	}
	return len(hot)
}

// RunLengths returns a histogram of same-line run lengths: h[k] = how
// many maximal runs of k consecutive fetches stayed within one line.
// Long runs are what the same-line skip and the sequential links
// exploit.
func RunLengths(addrs []uint32, lineBytes int) map[int]int {
	h := make(map[int]int)
	if len(addrs) == 0 {
		return h
	}
	run := 1
	for i := 1; i < len(addrs); i++ {
		if lineOf(addrs[i], lineBytes) == lineOf(addrs[i-1], lineBytes) {
			run++
			continue
		}
		h[run]++
		run = 1
	}
	h[run]++
	return h
}

// MeanRunLength returns the average same-line run length.
func MeanRunLength(addrs []uint32, lineBytes int) float64 {
	h := RunLengths(addrs, lineBytes)
	var runs, fetches int
	for k, n := range h {
		runs += n
		fetches += k * n
	}
	if runs == 0 {
		return 0
	}
	return float64(fetches) / float64(runs)
}

// PrefixCoverage returns the fraction of fetches whose address lies
// below base+size — the dynamic way-placement-area coverage of the
// actual run (as opposed to layout.Coverage's profile estimate).
func PrefixCoverage(addrs []uint32, base, size uint32) float64 {
	if len(addrs) == 0 {
		return 0
	}
	var in int
	for _, a := range addrs {
		if a >= base && a-base < size {
			in++
		}
	}
	return float64(in) / float64(len(addrs))
}

// Summary renders the standard analysis block for a trace.
func Summary(addrs []uint32, lineBytes int, base uint32) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fetches            %12d\n", len(addrs))
	fmt.Fprintf(&sb, "working set        %12d lines (%d bytes)\n",
		WorkingSet(addrs, lineBytes), WorkingSet(addrs, lineBytes)*lineBytes)
	fmt.Fprintf(&sb, "90%% concentration  %12d lines\n", Concentration(addrs, lineBytes, 0.90))
	fmt.Fprintf(&sb, "99%% concentration  %12d lines\n", Concentration(addrs, lineBytes, 0.99))
	fmt.Fprintf(&sb, "mean same-line run %12.2f fetches\n", MeanRunLength(addrs, lineBytes))
	for _, kb := range []uint32{1, 4, 16} {
		fmt.Fprintf(&sb, "%2dKB prefix covers %11.1f%% of fetches\n",
			kb, 100*PrefixCoverage(addrs, base, kb<<10))
	}
	return sb.String()
}

// ReuseDistances returns a histogram of line reuse distances: for
// each re-fetch of a line, the number of *distinct* other lines
// touched since its previous fetch. h[d] counts reuses at distance d;
// first touches are not counted. A cache of W*S lines (fully
// associative view) hits every reuse with distance below its
// capacity, so the histogram's mass below a capacity predicts that
// cache's upper-bound hit rate on the stream.
func ReuseDistances(addrs []uint32, lineBytes int) map[int]int {
	h := make(map[int]int)
	var stack []uint32          // LRU stack of lines, most recent last
	pos := make(map[uint32]int) // line -> index in stack
	for _, a := range addrs {
		line := lineOf(a, lineBytes)
		if p, seen := pos[line]; seen {
			// Distance = number of distinct lines above it in the LRU
			// stack (0 for a same-line consecutive fetch).
			h[len(stack)-1-p]++
			// Move to top.
			stack = append(stack[:p], stack[p+1:]...)
			for i := p; i < len(stack); i++ {
				pos[stack[i]] = i
			}
		}
		stack = append(stack, line)
		pos[line] = len(stack) - 1
	}
	return h
}

// HitRateAtCapacity returns the fraction of fetches a fully-
// associative LRU cache of the given line capacity would hit on this
// stream, derived from the reuse-distance histogram.
func HitRateAtCapacity(addrs []uint32, lineBytes, capacityLines int) float64 {
	if len(addrs) == 0 {
		return 0
	}
	h := ReuseDistances(addrs, lineBytes)
	var hits int
	for d, n := range h {
		if d < capacityLines {
			hits += n
		}
	}
	return float64(hits) / float64(len(addrs))
}
