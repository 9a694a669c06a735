package check

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wayplace/internal/bench"
	"wayplace/internal/cache"
	"wayplace/internal/energy"
	"wayplace/internal/layout"
	"wayplace/internal/obj"
	"wayplace/internal/sim"
)

// relocMaxInstrs is the evaluation's instruction budget on the Large
// inputs.
const relocMaxInstrs = 100_000_000

// TestRelocationMatchesLive is the relocation-equivalence gate: for
// every benchmark on its Large input, the original layout's recording
// relocated onto each layout the evaluation runs — the profile-placed
// binary, the random (0xabcdef) and Pettis-Hansen permutations and the
// large-profile oracle layout — gives exactly what a live pass over
// that binary gives, every model field for field, on the paper's cache
// and on thrashGeometry. So does the placed layout's recording
// relocated onto the original, the direction the engine takes when a
// workload's placed cells arrive first. The oracle layout's
// large-input profile is read off the recording, and must equal a
// profiling run's and the placed recording's. A program of another
// unit, even the same benchmark's Small input, is refused. It covers
// the benchmarks relocSwept names.
func TestRelocationMatchesLive(t *testing.T) {
	base := sim.Default()
	base.MaxInstrs = relocMaxInstrs
	paper := base.ICache
	pol := sim.DefaultAdaptivePolicy(paper, base.ITLB.PageBytes)
	thrashPol := sim.DefaultAdaptivePolicy(thrashGeometry, base.ITLB.PageBytes)
	models := []sim.ModelSpec{
		{Geometry: paper, Scheme: energy.Baseline},
		{Geometry: paper, Scheme: energy.WayMemoization},
		{Geometry: paper, Scheme: energy.WayPlacement, WPSize: 2 << 10},
		{Geometry: paper, Scheme: energy.WayPlacement, WPSize: 16 << 10, NoSameLine: true},
		{Geometry: paper, Adaptive: &pol},
		{Geometry: thrashGeometry, Scheme: energy.Baseline},
		{Geometry: thrashGeometry, Scheme: energy.WayMemoization},
		{Geometry: thrashGeometry, Scheme: energy.WayPlacement, WPSize: 4 << 10},
		{Geometry: thrashGeometry, Scheme: energy.WayPlacement, WPSize: 4 << 10, NoSameLine: true},
		{Geometry: thrashGeometry, Adaptive: &thrashPol},
	}

	for _, b := range bench.All() {
		b := b
		if !relocSwept(b.Name) {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			smallUnit, err := b.Build(bench.Small)
			if err != nil {
				t.Fatal(err)
			}
			u, err := b.Build(bench.Large)
			if err != nil {
				t.Fatal(err)
			}
			small, err := layout.LinkOriginal(smallUnit, textBase)
			if err != nil {
				t.Fatal(err)
			}
			prof, _, err := sim.ProfileRun(small, relocMaxInstrs)
			if err != nil {
				t.Fatal(err)
			}
			original, err := layout.LinkOriginal(u, textBase)
			if err != nil {
				t.Fatal(err)
			}
			originalLive, tr, err := sim.RecordMulti(ctx, original, base, models)
			if err != nil || tr == nil {
				t.Fatalf("record original: trace %v, err %v", tr, err)
			}

			largeProf, err := tr.Profile()
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := sim.ProfileRun(original, relocMaxInstrs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(largeProf.Counts, want.Counts) {
				t.Error("the recording's block counts differ from a profiling run's")
			}
			placed, err := layout.Link(u, prof, textBase)
			if err != nil {
				t.Fatal(err)
			}
			placedLive, placedTr, err := sim.RecordMulti(ctx, placed, base, models)
			if err != nil || placedTr == nil {
				t.Fatalf("record placed: trace %v, err %v", placedTr, err)
			}
			if placedProf, err := placedTr.Profile(); err != nil || !reflect.DeepEqual(placedProf.Counts, want.Counts) {
				t.Errorf("the placed recording's block counts differ from a profiling run's (err %v)", err)
			}

			// relocated replays trace onto prog and holds it to live.
			relocated := func(name string, trace *sim.FetchTrace, prog *obj.Program, live []*sim.ModelResult) {
				got, err := sim.ReplayMulti(ctx, trace, prog, base, models)
				if err != nil {
					t.Fatalf("%s: relocate: %v", name, err)
				}
				for i, spec := range models {
					for _, d := range ReplayDiffs(fmt.Sprintf("%s model %d (%+v)", name, i, spec), got[i], live[i]) {
						t.Error(d)
					}
				}
			}
			relocated("placed", tr, placed, placedLive)
			relocated("placed onto original", placedTr, original, originalLive)

			targets := []struct {
				name string
				link func() (*obj.Program, error)
			}{
				{"random", func() (*obj.Program, error) { return layout.LinkPermuted(u, 0xabcdef, textBase) }},
				{"pettis-hansen", func() (*obj.Program, error) { return layout.LinkPettisHansen(u, prof, textBase) }},
				{"large-profile", func() (*obj.Program, error) { return layout.Link(u, largeProf, textBase) }},
			}
			for _, target := range targets {
				prog, err := target.link()
				if err != nil {
					t.Fatalf("%s: link: %v", target.name, err)
				}
				live, err := sim.RunMulti(ctx, prog, base, models)
				if err != nil {
					t.Fatalf("%s: live: %v", target.name, err)
				}
				relocated(target.name, tr, prog, live)
			}

			for name, trace := range map[string]*sim.FetchTrace{"original": tr, "placed": placedTr} {
				if _, err := sim.ReplayMulti(ctx, trace, small, base, models); err == nil || !strings.Contains(err.Error(), "different units") {
					t.Errorf("relocating the %s recording onto another unit: err %v, want a refusal", name, err)
				}
			}
		})
	}
}

// relocSwept reports whether the relocation sweep covers a benchmark:
// every one normally, shortSuite under -short, and its cheapest
// member under the race detector, which slows the simulator about
// 25-fold.
func relocSwept(name string) bool {
	switch {
	case raceEnabled:
		return name == "susan_s"
	case testing.Short():
		return shortSuite[name]
	}
	return true
}

// A relocation is refused before any model runs when the two programs
// differ in their blocks or their data image, however alike they look.
func TestRelocationGuard(t *testing.T) {
	b, err := bench.ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Default()
	base.MaxInstrs = relocMaxInstrs
	models := []sim.ModelSpec{{Geometry: base.ICache, Scheme: energy.Baseline}}
	u, err := b.Build(bench.Small)
	if err != nil {
		t.Fatal(err)
	}
	original, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := sim.RecordMulti(context.Background(), original, base, models)
	if err != nil || tr == nil {
		t.Fatalf("record: trace %v, err %v", tr, err)
	}
	rebuilt, err := b.Build(bench.Small) // equal contents, other blocks
	if err != nil {
		t.Fatal(err)
	}
	otherData := *original
	otherData.Data = append([]byte{1}, original.Data...)
	geo := cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32}
	for name, prog := range map[string]*obj.Program{
		"rebuilt unit": mustLinkOriginal(t, rebuilt),
		"other data":   &otherData,
	} {
		res, err := sim.ReplayMulti(context.Background(), tr, prog, base, []sim.ModelSpec{{Geometry: geo, Scheme: energy.Baseline}})
		if err == nil || res != nil {
			t.Errorf("%s: results %v, err %v; want a refusal", name, res, err)
		}
	}
	other := base
	other.DCache.SizeBytes *= 2
	if _, err := sim.ReplayMulti(context.Background(), tr, original, other, models); err == nil {
		t.Error("relocation accepted a trace recorded under another producer configuration")
	}
}

func mustLinkOriginal(t *testing.T, u *obj.Unit) *obj.Program {
	t.Helper()
	p, err := layout.LinkOriginal(u, textBase)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
