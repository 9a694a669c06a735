package api

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"testing"
	"time"

	"wayplace/internal/obs"
)

// brokenWriter fails every body write, as a connection the client
// closed mid-answer does.
type brokenWriter struct{ header http.Header }

func (b *brokenWriter) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}
func (b *brokenWriter) WriteHeader(int)           {}
func (b *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("write: broken pipe") }

// A Responder counts every truncated write but logs only the first and
// then one line per truncatedLogEvery, which reports how many writes it
// left unlogged since the line before. The clock is the test's.
func TestResponderThrottlesTruncatedWriteLogs(t *testing.T) {
	var logs bytes.Buffer
	out, flags := log.Writer(), log.Flags()
	log.SetOutput(&logs)
	log.SetFlags(0)
	defer func() {
		log.SetOutput(out)
		log.SetFlags(flags)
	}()

	reg := obs.NewRegistry()
	truncated := reg.Counter("truncated_total")
	rw := NewResponder("test", truncated)
	clock := time.Unix(1000, 0)
	rw.now = func() time.Time { return clock }
	truncate := func(n int) {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				rw.JSON(&brokenWriter{}, http.StatusOK, map[string]string{"k": "v"})
			} else {
				rw.Batch(&brokenWriter{}, http.StatusOK, &BatchResponse{APIVersion: Version, Status: StatusDone})
			}
		}
	}

	truncate(50)
	clock = clock.Add(truncatedLogEvery - time.Millisecond)
	truncate(20)
	clock = clock.Add(time.Millisecond)
	truncate(5)
	clock = clock.Add(3 * truncatedLogEvery)
	truncate(1)

	if got := truncated.Value(); got != 76 {
		t.Errorf("counted %d truncated writes, want 76", got)
	}
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("logged %d lines, want 3:\n%s", len(lines), logs.String())
	}
	for i, n := range []int{1, 70, 5} {
		if want := fmt.Sprintf("since the last report: %d, the latest: ", n); !strings.HasPrefix(lines[i], "test: ") || !strings.Contains(lines[i], want) || !strings.HasSuffix(lines[i], "broken pipe") {
			t.Errorf("line %d = %q, want it to start %q and end with the latest error", i, lines[i], want)
		}
	}

	NewResponder("quiet", nil).JSON(&brokenWriter{}, http.StatusOK, nil) // a nil counter counts nothing
}
