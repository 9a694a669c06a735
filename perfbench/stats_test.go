package main

import (
	"os"
	"testing"
	"time"
)

func TestExactQuantileNearestRank(t *testing.T) {
	// 1..100 shuffled: the p-th percentile by nearest rank is ceil(p*n).
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.25, 25, 75},
	} {
		q, err := exactQuantile(s, tc.p)
		if err != nil {
			t.Fatalf("p%g: %v", 100*tc.p, err)
		}
		if q.Value != tc.value || q.Beyond != tc.beyond || q.N != 100 {
			t.Errorf("p%g = %+v, want value %g with %d beyond of 100", 100*tc.p, q, tc.value, tc.beyond)
		}
	}
	if s[0] != 100 {
		t.Error("exactQuantile reordered its input")
	}
}

func TestExactQuantileNeedsTenBeyond(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i)
	}
	// p99 of 100 samples has one sample beyond it: an error, not a number.
	if q, err := exactQuantile(s, 0.99); err == nil {
		t.Fatalf("p99 of 100 samples accepted: %+v", q)
	}
	// p99 of 1100 samples has 11 beyond it.
	big := make([]float64, 1100)
	if _, err := exactQuantile(big, 0.99); err != nil {
		t.Fatalf("p99 of 1100 samples: %v", err)
	}
	if _, err := exactQuantile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func TestMeterCountsCPUNotWaiting(t *testing.T) {
	var busy meter
	busy.start()
	deadline := time.Now().Add(100 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	busy.stop()
	if busy.CPU < 50*time.Millisecond {
		t.Errorf("100ms busy loop metered %v of CPU", busy.CPU)
	}

	var idle meter
	idle.start()
	time.Sleep(100 * time.Millisecond)
	idle.stop()
	if idle.Wall < 100*time.Millisecond {
		t.Errorf("100ms sleep metered %v of wall time", idle.Wall)
	}
	if idle.CPU > 30*time.Millisecond {
		t.Errorf("100ms sleep metered %v of CPU", idle.CPU)
	}

	// Intervals accumulate, and rates divide by the summed wall time.
	idle.start()
	time.Sleep(20 * time.Millisecond)
	idle.stop()
	if idle.Wall < 120*time.Millisecond {
		t.Errorf("two intervals metered %v of wall time", idle.Wall)
	}
	perS, cpuMS := idle.perCell(10)
	if want := 10 / idle.Wall.Seconds(); perS != want {
		t.Errorf("cells/s = %g, want %g", perS, want)
	}
	if want := float64(idle.CPU) / 1e6 / 10; cpuMS != want {
		t.Errorf("cpu ms/cell = %g, want %g", cpuMS, want)
	}
}

func TestMeterCountsAllocation(t *testing.T) {
	var m meter
	m.start()
	keep := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	m.stop()
	if m.Alloc < 64*64<<10 {
		t.Errorf("allocating 4MiB metered %d bytes", m.Alloc)
	}
	_ = keep
}

func TestMaxRSSTracksPeak(t *testing.T) {
	before := maxRSSMB()
	if before <= 0 {
		t.Fatalf("max RSS %g MB", before)
	}
	// Make 64 MiB more than the earlier peak resident at once: the new
	// peak is at least that.
	size := int(before)<<20 + 64<<20
	b := make([]byte, size)
	for i := 0; i < len(b); i += os.Getpagesize() {
		b[i] = 1
	}
	after := maxRSSMB()
	if after < float64(size>>20) {
		t.Errorf("touching 64 MiB raised peak RSS from %.1f to %.1f MB", before, after)
	}
	b[len(b)-1] = 1
}

func TestUpperQuartile(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 9}, 9},
		{[]float64{4, 1, 3, 2}, 3},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 8},
	} {
		if got := upperQuartile(tc.in); got != tc.want {
			t.Errorf("upperQuartile(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
}
