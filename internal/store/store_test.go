package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wayplace/internal/obs"
	"wayplace/internal/sim"
)

func testStats(seed uint64) *sim.RunStats {
	return &sim.RunStats{
		Instrs:   1000 + seed,
		Cycles:   2000 + seed,
		Checksum: uint32(seed),
		MemHash:  0xdead_beef + seed,
	}
}

func openTestStore(t *testing.T, dir string, reg *obs.Registry) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Registry: reg, Fingerprint: "fp-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := openTestStore(t, t.TempDir(), reg)

	key := "rs2|roundtrip"
	want := testStats(7)
	changes := []sim.AreaChange{{AtInstr: 10, Size: 1024}, {AtInstr: 20, Size: 2048}}
	if err := s.Put(key, want, changes); err != nil {
		t.Fatal(err)
	}
	stats, gotChanges, ok := s.Load(key)
	if !ok {
		t.Fatal("Load after Put: miss")
	}
	if !reflect.DeepEqual(stats, want) {
		t.Errorf("stats round-trip: got %+v, want %+v", stats, want)
	}
	if !reflect.DeepEqual(gotChanges, changes) {
		t.Errorf("area changes round-trip: got %+v, want %+v", gotChanges, changes)
	}
	if _, _, ok := s.Load("rs2|absent"); ok {
		t.Error("Load of absent key reported a hit")
	}
	if got := reg.Counter(MetricHits).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricHits, got)
	}
	if got := reg.Counter(MetricMisses).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricMisses, got)
	}
	if got := reg.Counter(MetricWrites).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricWrites, got)
	}
}

func TestStoreWriteBehindFlush(t *testing.T) {
	reg := obs.NewRegistry()
	s := openTestStore(t, t.TempDir(), reg)

	for i := uint64(0); i < 20; i++ {
		s.Save("rs2|wb|"+string(rune('a'+i)), testStats(i), nil)
	}
	s.Flush()
	for i := uint64(0); i < 20; i++ {
		if _, _, ok := s.Load("rs2|wb|" + string(rune('a'+i))); !ok {
			t.Fatalf("key %d not durable after Flush", i)
		}
	}
	if got := reg.Counter(MetricWrites).Value(); got != 20 {
		t.Errorf("%s = %d, want 20", MetricWrites, got)
	}
}

// The store survives its own lifecycle edges: Save and Flush after
// Close are silent no-ops, Close is idempotent.
func TestStoreSaveAfterClose(t *testing.T) {
	s := openTestStore(t, t.TempDir(), nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Save("rs2|late", testStats(1), nil) // must not panic
	s.Flush()                             // must not hang or panic
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// A store directory is pinned to the base-config fingerprint it was
// created under: reopening under a different base must be refused,
// or cells computed on one machine template would alias another's.
func TestStoreFingerprintPinning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: "base-A"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = Open(Options{Dir: dir, Fingerprint: "base-A"})
	if err != nil {
		t.Fatalf("reopen under the same fingerprint: %v", err)
	}
	s.Close()

	if _, err := Open(Options{Dir: dir, Fingerprint: "base-B"}); err == nil {
		t.Fatal("open under a different base-config fingerprint succeeded; want refusal")
	} else if !strings.Contains(err.Error(), "base-A") {
		t.Errorf("mismatch error %q does not name the pinned fingerprint", err)
	}
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	a := sim.Default()
	b := sim.Default()
	b.MaxInstrs++
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("distinct configs share a fingerprint")
	}
	if Fingerprint(a) != Fingerprint(sim.Default()) {
		t.Error("equal configs fingerprint differently")
	}
}

// Corrupt objects — truncated writes that somehow became visible,
// bit rot, hand-edited files — are counted misses, never crashes,
// and fsck pinpoints every one of them.
func TestStoreCorruptObjects(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s := openTestStore(t, dir, reg)

	keys := []string{"rs2|ok", "rs2|truncated", "rs2|garbage", "rs2|wrongschema"}
	for i, key := range keys {
		if err := s.Put(key, testStats(uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Truncate one object mid-JSON, overwrite one with garbage, and
	// retag one with an unknown schema.
	truncPath := objectPath(dir, "rs2|truncated")
	data, err := os.ReadFile(truncPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objectPath(dir, "rs2|garbage"), []byte("\x00\xff not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	retagged := []byte(strings.Replace(string(mustRead(t, objectPath(dir, "rs2|wrongschema"))),
		"wpstore/v1", "wpstore/v0", 1))
	if err := os.WriteFile(objectPath(dir, "rs2|wrongschema"), retagged, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, key := range keys[1:] {
		if _, _, ok := s.Load(key); ok {
			t.Errorf("Load(%q) returned a corrupt object as a hit", key)
		}
	}
	if _, _, ok := s.Load("rs2|ok"); !ok {
		t.Error("intact object no longer loads")
	}
	if got := reg.Counter(MetricCorrupt).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", MetricCorrupt, got)
	}

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 1 || len(rep.Corrupt) != 3 {
		t.Errorf("Fsck = %d ok / %d corrupt, want 1/3: %v", rep.Objects, len(rep.Corrupt), rep.Corrupt)
	}
}

// An object whose embedded key does not re-hash to its filename is
// corruption only fsck can see (Load by the embedded key would read a
// different path), which is exactly why -store-fsck exists.
func TestFsckDetectsMisplacedObject(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	if err := s.Put("rs2|original", testStats(1), nil); err != nil {
		t.Fatal(err)
	}
	src := objectPath(dir, "rs2|original")
	dst := objectPath(dir, "rs2|imposter")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, mustRead(t, src), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 1 || len(rep.Corrupt) != 1 {
		t.Errorf("Fsck = %d ok / %d corrupt, want 1/1: %v", rep.Objects, len(rep.Corrupt), rep.Corrupt)
	}
}

func TestFsckEmptyStore(t *testing.T) {
	rep, err := Fsck(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 0 || len(rep.Corrupt) != 0 {
		t.Errorf("empty store Fsck = %+v, want clean zero", rep)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadConcurrentWithWriter: loads racing the write-behind writer
// observe its atomic object writes, each key appearing complete or not
// at all.
func TestLoadConcurrentWithWriter(t *testing.T) {
	const keys = 64
	const readers = 4
	w := openTestStore(t, t.TempDir(), nil)

	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			// Each reader spins on every key until it appears, then
			// validates the payload — a torn or misdecoded object fails.
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("rs2|concurrent-%d", k)
				want := testStats(uint64(k))
				for tries := 0; ; tries++ {
					if stats, _, ok := w.Load(key); ok {
						if !reflect.DeepEqual(stats, want) {
							errc <- fmt.Errorf("reader %d: key %s holds %+v, want %+v", ri, key, stats, want)
						}
						break
					}
					if tries > 10000 {
						errc <- fmt.Errorf("reader %d: key %s never appeared", ri, key)
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(ri)
	}
	for k := 0; k < keys; k++ {
		w.Save(fmt.Sprintf("rs2|concurrent-%d", k), testStats(uint64(k)), nil)
	}
	w.Flush()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
