package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// A percentile with fewer is a guess about the tail, not a measurement,
// and the run reports it as an error.
const minBeyond = 10

// quantile is one exact percentile of a sample set, with the counts
// that say how far it can be trusted.
type quantile struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// exactQuantile selects the p-th percentile of samples by nearest rank
// (the smallest sample with at least p of the set at or below it). It
// never interpolates or buckets. It fails when fewer than minBeyond
// samples lie above the selected one.
func exactQuantile(samples []float64, p float64) (quantile, error) {
	n := len(samples)
	if n == 0 {
		return quantile{P: p}, fmt.Errorf("p%g: no samples", 100*p)
	}
	if p <= 0 || p >= 1 {
		return quantile{P: p}, fmt.Errorf("p%g: percentile must lie strictly between 0 and 100", 100*p)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	q := quantile{P: p, Value: sorted[rank-1], N: n, Beyond: n - rank}
	if q.Beyond < minBeyond {
		return q, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, q.Beyond, minBeyond)
	}
	return q, nil
}

// median is the middle of samples (the mean of the two middle values
// for an even count). It is for repeated whole-run measurements such
// as set-up times, where there are too few samples for a percentile
// with a tail beyond it; per-request latencies use exactQuantile.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// upperQuartile is the nearest-rank 75th percentile of per-pass
// throughputs: the run's speed in its better passes. Interference from
// other tenants of a shared host only ever slows a pass down, so this
// is steadier across runs than the mean, while a slower program still
// lowers every pass.
func upperQuartile(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.75*float64(len(s))))-1]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter accumulates wall time, process CPU time, heap allocation and
// GC cycles over one or more timed intervals (start/stop pairs).
type meter struct {
	Wall  time.Duration
	CPU   time.Duration
	Alloc uint64
	GCs   uint32

	t0 time.Time
	c0 time.Duration
	a0 uint64
	g0 uint32
}

func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.a0, m.g0 = ms.TotalAlloc, ms.NumGC
	m.c0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.c0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Wall += wall
	m.CPU += cpu
	m.Alloc += ms.TotalAlloc - m.a0
	m.GCs += ms.NumGC - m.g0
}

// perCell returns the end-to-end rates of cells completed under m.
func (m *meter) perCell(cells int) (cellsPerS, cpuMSPerCell float64) {
	if cells == 0 || m.Wall <= 0 {
		return 0, 0
	}
	return float64(cells) / m.Wall.Seconds(), float64(m.CPU) / float64(time.Millisecond) / float64(cells)
}
