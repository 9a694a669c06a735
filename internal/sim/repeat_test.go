package sim

import (
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wayplace/internal/cache"
	"wayplace/internal/cpu"
	"wayplace/internal/energy"
	"wayplace/internal/obj"
)

// cutEvents is the reference cut of a chunk's events into maximal
// segments and same-block runs, one event at a time: a segment ends
// where an event is not the unflagged next word, a run where the block
// changes.
func cutEvents(ev []uint32, blockNeg uint32) ([]FetchSeg, []FetchRun) {
	segStart, runStart := 0, 0
	segs := []FetchSeg{{Word: ev[0]}}
	runs := []FetchRun{{First: ev[0]}}
	block, next := ev[0]&^blockNeg, cpu.EventAddr(ev[0])+4
	for i := 1; i < len(ev); i++ {
		e := ev[i]
		if e != next {
			segs[len(segs)-1].N = uint32(i - segStart)
			segs = append(segs, FetchSeg{Word: e})
			segStart = i
		}
		if b := e &^ blockNeg; b != block {
			r := &runs[len(runs)-1]
			r.N, r.Last = uint32(i-runStart), next-4
			runs = append(runs, FetchRun{Seg: uint32(len(segs) - 1), First: e})
			runStart, block = i, b
		}
		next = cpu.EventAddr(e) + 4
	}
	segs[len(segs)-1].N = uint32(len(ev) - segStart)
	r := &runs[len(runs)-1]
	r.N, r.Last = uint32(len(ev)-runStart), next-4
	return segs, runs
}

// repChunk builds a chunk from raw events, cut into segments and
// 32-byte-block runs and with its repeats found. Like a replayed
// chunk, it carries no event words.
func repChunk(ev []uint32) *FetchChunk {
	segs, runs := cutEvents(ev, 31)
	ch := &FetchChunk{Segs: segs, Runs: runs}
	ch.Reps = new(repeatFinder).find(ch)
	return ch
}

// segEvents expands segments into their event words.
func segEvents(segs []FetchSeg) []uint32 {
	var ev []uint32
	for _, sg := range segs {
		ev = append(ev, sg.Word)
		for k := uint32(1); k < sg.N; k++ {
			ev = append(ev, cpu.EventAddr(sg.Word)+4*k)
		}
	}
	return ev
}

// checkReps verifies the FetchRep contract on ch: every repeat is in
// range, ordered and disjoint, spans a whole number of copies, and
// every copy — the one before the probe included — is event-identical
// to the probe, by the events its segments expand to.
func checkReps(t *testing.T, ch *FetchChunk) {
	t.Helper()
	ev := segEvents(ch.Segs)
	starts := make([]uint32, len(ch.Runs)+1) // starts[i]: the event index of run i
	for i, r := range ch.Runs {
		starts[i+1] = starts[i] + r.N
	}
	if int(starts[len(ch.Runs)]) != len(ev) {
		t.Fatalf("runs hold %d events, segments %d", starts[len(ch.Runs)], len(ev))
	}
	span := func(i, j uint32) []uint32 { return ev[starts[i]:starts[j]] }
	prevEnd := uint32(0)
	for _, r := range ch.Reps {
		p := r.Skip - r.Probe
		switch {
		case r.Probe >= r.Skip || r.Skip >= r.End || int(r.End) > len(ch.Runs):
			t.Fatalf("rep %+v out of range or empty (%d runs)", r, len(ch.Runs))
		case r.Probe < prevEnd:
			t.Fatalf("rep %+v overlaps or precedes the previous one (end %d)", r, prevEnd)
		case p > repMaxPeriod || r.Probe < p:
			t.Fatalf("rep %+v: period %d has no copy before the probe or is too long", r, p)
		case (r.End-r.Skip)%p != 0:
			t.Fatalf("rep %+v: (End-Skip) %% (Skip-Probe) = %d", r, (r.End-r.Skip)%p)
		}
		probe := span(r.Probe, r.Skip)
		for k := r.Probe - p; k < r.End; k += p {
			if !slices.Equal(span(k, k+p), probe) {
				t.Fatalf("rep %+v: copy at run %d differs from the probe", r, k)
			}
		}
		prevEnd = r.End
	}
}

// block returns the events of one run: n sequential fetches from
// offset word off of the 32-byte block b, the first flagged indirect
// when ind is set.
func block(b, off, n uint32, ind bool) []uint32 {
	ev := make([]uint32, 0, n)
	for k := uint32(0); k < n; k++ {
		ev = append(ev, 0x1_0000+32*b+4*(off+k))
	}
	if ind {
		ev[0] |= 1
	}
	return ev
}

// A pure loop is found as one repeat: its second iteration is the
// probe and the rest are skipped copies.
func TestFindRepeatsPureLoop(t *testing.T) {
	var ev []uint32
	for it := 0; it < 20; it++ {
		for b := uint32(0); b < 5; b++ {
			ev = append(ev, block(b, b%3, 3, b == 2)...)
		}
	}
	ch := repChunk(ev)
	checkReps(t, ch)
	want := []FetchRep{{Probe: 5, Skip: 10, End: 100}}
	if !reflect.DeepEqual(ch.Reps, want) {
		t.Fatalf("reps = %+v, want %+v", ch.Reps, want)
	}
}

// Copies must match event for event, not only in their run tuples:
// the same blocks entered at another offset, or with another indirect
// flag, end the repeat.
func TestFindRepeatsNeedsEqualEvents(t *testing.T) {
	iter := func(off uint32, ind bool) []uint32 {
		return append(block(0, off, 2, ind), block(1, 0, 2, false)...)
	}
	var ev []uint32
	for it := 0; it < 4; it++ {
		ev = append(ev, iter(0, false)...)
	}
	ev = append(ev, iter(2, false)...) // same runs (block, length), other events
	ev = append(ev, iter(0, true)...)  // same addresses, indirect first fetch
	ch := repChunk(ev)
	checkReps(t, ch)
	want := []FetchRep{{Probe: 2, Skip: 4, End: 8}}
	if !reflect.DeepEqual(ch.Reps, want) {
		t.Fatalf("reps = %+v, want %+v", ch.Reps, want)
	}
}

// Two periods that agree on every run's first event, length and last
// address but differ inside one run (a jump inside the block, or an
// indirect flag on a fetch of the next word) are not copies.
func TestFindRepeatsComparesInsideRuns(t *testing.T) {
	seq := []uint32{0x1_0000, 0x1_0004, 0x1_0008}
	jumpy := []uint32{0x1_0000, 0x1_0008, 0x1_0008} // jumps over a word, then to itself
	flagged := []uint32{0x1_0000, 0x1_0004 | cpu.EventIndirect, 0x1_0008}
	iter := func(x []uint32) []uint32 { return append(slices.Clone(x), block(1, 0, 2, false)...) }
	var ev []uint32
	for it := 0; it < 4; it++ {
		ev = append(ev, iter(seq)...)
	}
	ev = append(ev, iter(jumpy)...)
	ev = append(ev, iter(flagged)...)
	ch := repChunk(ev)
	for i := 2; i < len(ch.Runs); i++ {
		a, b := ch.Runs[i], ch.Runs[i%2]
		if a.First != b.First || a.N != b.N || a.Last != b.Last {
			t.Fatalf("run %d %+v and run %d %+v differ in First, N or Last; the test checks nothing", i, a, i%2, b)
		}
	}
	checkReps(t, ch)
	want := []FetchRep{{Probe: 2, Skip: 4, End: 8}}
	if !reflect.DeepEqual(ch.Reps, want) {
		t.Fatalf("reps = %+v, want %+v", ch.Reps, want)
	}
}

// plantedEvents is a random stream of loops (random bodies repeated a
// random number of times, some iterations perturbed) and straight-line
// noise.
func plantedEvents(rng *rand.Rand, n int) []uint32 {
	var ev []uint32
	randRun := func() []uint32 {
		off := uint32(rng.Intn(8))
		return block(uint32(rng.Intn(64)), off, 1+uint32(rng.Intn(int(8-off))), rng.Intn(8) == 0)
	}
	for len(ev) < n {
		if rng.Intn(3) == 0 {
			ev = append(ev, randRun()...)
			continue
		}
		var body []uint32
		for k := 1 + rng.Intn(12); k > 0; k-- {
			body = append(body, randRun()...)
		}
		for it := rng.Intn(10); it >= 0; it-- {
			if rng.Intn(6) == 0 {
				ev = append(ev, randRun()...)
			}
			ev = append(ev, body...)
		}
	}
	return ev[:n]
}

// repeatGeoms are the geometries the synthetic exactness checks run
// on: ample, thrashing (four lines) and LRU.
var repeatGeoms = []cache.Config{
	{SizeBytes: 4 << 10, Ways: 4, LineBytes: 32},
	{SizeBytes: 128, Ways: 2, LineBytes: 32},
	{SizeBytes: 1 << 10, Ways: 2, LineBytes: 32, Policy: cache.LRU},
}

// checkClosedFormExact consumes ch with and without its repeats
// through every bulk model on every repeatGeoms geometry, requires
// identical cache statistics, and returns how many runs the models
// charged in closed form.
func checkClosedFormExact(t *testing.T, ch *FetchChunk) uint64 {
	t.Helper()
	closed := uint64(0)
	prog := &obj.Program{Base: 0x1_0000}
	plain := *ch
	plain.Reps = nil
	for _, geo := range repeatGeoms {
		for _, spec := range []ModelSpec{
			{Geometry: geo, Scheme: energy.Baseline},
			{Geometry: geo, Scheme: energy.WayMemoization},
			{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 1 << 10},
			{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 1 << 10, NoSameLine: true},
		} {
			var got [2]cache.Stats
			for k, c := range []*FetchChunk{ch, &plain} {
				m, err := newModel(Default(), spec, prog)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Consume(c); err != nil {
					t.Fatal(err)
				}
				got[k] = m.core().fe.Cache().Stats
				closed += m.core().repeatedRuns
			}
			if got[0] != got[1] {
				t.Fatalf("%v %+v: with repeats %+v\nwithout %+v", spec.Scheme, geo, got[0], got[1])
			}
		}
	}
	return closed
}

// On planted streams the repeats keep their contract, and closed-form
// consumption, which must take some of them, matches run-by-run
// consumption.
func TestRepeatsOnPlantedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	closed := uint64(0)
	for trial := 0; trial < 100; trial++ {
		ch := repChunk(plantedEvents(rng, 1+rng.Intn(4000)))
		checkReps(t, ch)
		closed += checkClosedFormExact(t, ch)
	}
	if closed == 0 {
		t.Fatal("no run of 100 planted streams was charged in closed form")
	}
}

// FuzzFindRepeats checks the FetchRep contract, and closed-form
// consumption against run-by-run consumption, on streams built from
// the input: its words are fetch events inside a small code region,
// the whole sequence repeated a few times.
func FuzzFindRepeats(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{5, 0x10, 0, 0x24, 0, 0x44, 0, 0x10, 0, 0x24, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		copies := 1 + int(data[0]%6)
		var body []uint32
		for b := data[1:]; len(b) >= 2; b = b[2:] {
			w := uint32(binary.LittleEndian.Uint16(b))
			body = append(body, 0x1_0000+(w&^1)%(4<<10)&^3|w&1)
		}
		if len(body) == 0 {
			return
		}
		var ev []uint32
		for k := 0; k < copies; k++ {
			ev = append(ev, body...)
		}
		ch := repChunk(ev)
		checkReps(t, ch)
		checkClosedFormExact(t, ch)
	})
}

// crcProgram links the crc benchmark on its small input.
func crcProgram(t *testing.T) *obj.Program {
	t.Helper()
	p, _ := linkBenchLayouts(t, "crc")
	return p
}

// repeatedRunsOf runs models over prog in one pass, requires every
// result to match the coupled reference field for field, and returns
// the runs each model charged in closed form and the pass's run count.
func repeatedRunsOf(t *testing.T, prog *obj.Program, cfg Config, models []ModelSpec) ([]uint64, uint64) {
	t.Helper()
	repeated := make(map[ModelSpec]uint64)
	testHookRepeatedRuns = func(spec ModelSpec, n uint64) { repeated[spec] = n }
	defer func() { testHookRepeatedRuns = nil }()
	ctx := context.Background()
	res, err := RunMulti(ctx, prog, cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(models))
	for i, spec := range models {
		if res[i].Err != nil {
			t.Fatalf("model %d: %v", i, res[i].Err)
		}
		c := cfg
		c.ICache, c.Scheme, c.WPSize, c.NoSameLine = spec.Geometry, spec.Scheme, spec.WPSize, spec.NoSameLine
		want, err := RunCoupled(ctx, prog, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i].Stats, want) {
			t.Errorf("model %d (%+v): single pass\n%+v\ncoupled\n%+v", i, spec, res[i].Stats, want)
		}
		out[i] = repeated[spec]
	}
	src, err := NewFetchSource(prog, cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	var runs uint64
	for {
		ch, err := src.NextChunk(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ch == nil {
			return out, runs
		}
		runs += uint64(len(ch.Runs))
	}
}

// On crc, a 32 KB round-robin cache charges most of the stream in
// closed form, for every bulk scheme and for the same-line ablation.
func TestRepeatsSkipMostOfCRC(t *testing.T) {
	cfg := Default()
	geo := cfg.ICache
	models := []ModelSpec{
		{Geometry: geo, Scheme: energy.Baseline},
		{Geometry: geo, Scheme: energy.WayMemoization},
		{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 4 << 10},
		{Geometry: geo, Scheme: energy.WayPlacement, WPSize: 4 << 10, NoSameLine: true},
	}
	repeated, runs := repeatedRunsOf(t, crcProgram(t), cfg, models)
	for i, n := range repeated {
		t.Logf("%+v: %d of %d runs in closed form", models[i], n, runs)
		if 2*n <= runs {
			t.Errorf("%+v: %d of %d runs in closed form, want more than half", models[i], n, runs)
		}
	}
}

// A thrashing geometry falls back to run-by-run consumption for the
// repeats whose copies miss, and an LRU cache never takes the closed
// form; both still match the coupled loop.
func TestRepeatsFallBack(t *testing.T) {
	cfg := Default()
	thrash := cache.Config{SizeBytes: 64, Ways: 2, LineBytes: 32}
	lru := cfg.ICache
	lru.Policy = cache.LRU
	models := []ModelSpec{
		{Geometry: cfg.ICache, Scheme: energy.Baseline},
		{Geometry: thrash, Scheme: energy.Baseline},
		{Geometry: thrash, Scheme: energy.WayMemoization},
		{Geometry: thrash, Scheme: energy.WayPlacement, WPSize: 4 << 10},
		{Geometry: lru, Scheme: energy.Baseline},
	}
	repeated, runs := repeatedRunsOf(t, crcProgram(t), cfg, models)
	t.Logf("closed-form runs of %d: %v", runs, repeated)
	for i := 1; i <= 3; i++ {
		if repeated[i] >= repeated[0] {
			t.Errorf("%v on %+v: %d runs in closed form, want fewer than the ample cache's %d",
				models[i].Scheme, thrash, repeated[i], repeated[0])
		}
	}
	if repeated[4] != 0 {
		t.Errorf("LRU model charged %d runs in closed form", repeated[4])
	}
}
