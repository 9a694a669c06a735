package load

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSnapshotBytesStable locks the BENCH_wpload.json layout: a
// committed snapshot decodes into Snapshot with no unknown field and
// re-encodes to the identical bytes. The repository's snapshot carries
// the tenants section; the fixture carries a full fleet section.
func TestSnapshotBytesStable(t *testing.T) {
	for _, path := range []string{"../../BENCH_wpload.json", "testdata/BENCH_wpload_fleet.json"} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(want))
		dec.DisallowUnknownFields()
		var s Snapshot
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var got bytes.Buffer
		if err := s.Encode(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: re-encoding changed the bytes:\n%s", path, got.Bytes())
		}
	}
}
