package api

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		value string
		want  time.Duration
		ok    bool
	}{
		{"absent", "", 0, false},
		{"blank", "   ", 0, false},
		{"delta seconds", "120", 120 * time.Second, true},
		{"delta one", "1", time.Second, true},
		{"delta zero is retry-immediately, not absent", "0", 0, true},
		{"negative delta is not valid delay-seconds", "-5", 0, false},
		{"garbage", "soon", 0, false},
		{"float is not delta-seconds", "1.5", 0, false},
		{"imf-fixdate in the future", "Sat, 08 Aug 2026 12:00:30 GMT", 30 * time.Second, true},
		{"imf-fixdate in the past clamps to zero", "Sat, 08 Aug 2026 11:59:00 GMT", 0, true},
		{"imf-fixdate exactly now", "Sat, 08 Aug 2026 12:00:00 GMT", 0, true},
		{"rfc850 date", "Saturday, 08-Aug-26 12:01:00 GMT", time.Minute, true},
		{"asctime date", "Sat Aug  8 12:00:10 2026", 10 * time.Second, true},
		{"truncated date", "Sat, 08 Aug", 0, false},
		{"leading space delta", " 42", 42 * time.Second, true},
		{"largest delta a duration holds", "9223372036", 9223372036 * time.Second, true},
		{"delta past a duration saturates", "9223372037", math.MaxInt64, true},
		{"delta past uint64 nanoseconds saturates", "18446744074", math.MaxInt64, true},
		{"delta past int64 saturates", "99999999999999999999", math.MaxInt64, true},
		{"delta below int64 is not valid delay-seconds", "-99999999999999999999", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseRetryAfter(tc.value, now)
			if got != tc.want || ok != tc.ok {
				t.Fatalf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)",
					tc.value, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// FuzzParseRetryAfter: a well-formed hint is never a negative wait, and
// the wait never decreases as the delta-seconds grow, however large they
// get.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, v := range []string{"", "0", "120", "-5", "1.5", " 42", "9223372037", "18446744074",
		"Sat, 08 Aug 2026 12:00:30 GMT", "Saturday, 08-Aug-26 12:01:00 GMT", "Sat Aug  8 12:00:10 2026"} {
		f.Add(v, uint64(1), uint64(9223372037))
	}
	f.Fuzz(func(t *testing.T, value string, a, b uint64) {
		if wait, ok := ParseRetryAfter(value, now); ok && wait < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v, ok", value, wait)
		}
		if a > b {
			a, b = b, a
		}
		wa, oka := ParseRetryAfter(strconv.FormatUint(a, 10), now)
		wb, okb := ParseRetryAfter(strconv.FormatUint(b, 10), now)
		if !oka || !okb || wa > wb {
			t.Fatalf("delta %d waits (%v, %v), delta %d waits (%v, %v)", a, wa, oka, b, wb, okb)
		}
	})
}

// TestRetryPolicy walks the policy through each verdict. lo and hi
// bound the wait exactly: every backoff draw for the row's hint must
// land in [lo, hi], and Wait must sleep at least lo and return
// promptly after hi (a loose bound, so a loaded host cannot flake it).
func TestRetryPolicy(t *testing.T) {
	busy := func(hint time.Duration) error { return &BusyError{Msg: "busy", RetryAfter: hint} }
	cases := []struct {
		name    string
		policy  RetryPolicy
		err     error
		attempt int
		cancel  time.Duration // <0: cancelled before Wait; >0: cancelled that long into it
		want    Verdict
		wantErr error
		lo, hi  time.Duration
	}{
		{name: "nil error stands", policy: RetryPolicy{Retries: 4}, want: Done},
		{name: "non-429 error stands", policy: RetryPolicy{Retries: 4},
			err: &StatusError{Status: http.StatusInternalServerError}, want: Done},
		{name: "permanent 429 stands", policy: RetryPolicy{Retries: 4},
			err: &BusyError{Msg: "too large", RetryAfter: time.Hour, Permanent: true}, want: Done},
		{name: "Retry-After 0 retries at once", policy: RetryPolicy{Retries: 4},
			err: busy(0), want: Waited},
		{name: "Retry-After 0 never spins past a cancelled context", policy: RetryPolicy{Retries: 4},
			err: busy(0), cancel: -1, want: Waited, wantErr: context.Canceled},
		{name: "hint under the ceiling is honoured as sent", policy: RetryPolicy{Retries: 4, Ceiling: time.Second},
			err: busy(30 * time.Millisecond), want: Waited, lo: 30 * time.Millisecond, hi: 30 * time.Millisecond},
		{name: "hint above the ceiling is capped", policy: RetryPolicy{Retries: 4, Ceiling: 30 * time.Millisecond},
			err: busy(time.Hour), want: Waited, lo: 30 * time.Millisecond, hi: 30 * time.Millisecond},
		{name: "jitter stays inside half to all of the capped hint",
			policy: RetryPolicy{Retries: 8, Ceiling: 40 * time.Millisecond, Jitter: rand.New(rand.NewSource(1))},
			err:    busy(time.Hour), want: Waited, lo: 20 * time.Millisecond, hi: 40 * time.Millisecond},
		{name: "last retry inside the budget", policy: RetryPolicy{Retries: 4},
			err: busy(0), attempt: 3, want: Waited},
		{name: "budget spent at attempt == retries", policy: RetryPolicy{Retries: 4},
			err: busy(time.Hour), attempt: 4, want: GaveUp},
		{name: "context cancelled mid-wait", policy: RetryPolicy{Retries: 4},
			err: busy(time.Hour), cancel: 20 * time.Millisecond, want: Waited, wantErr: context.Canceled,
			hi: 20 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var be *BusyError
			if tc.want == Waited && tc.cancel == 0 && errors.As(tc.err, &be) {
				drawn := map[time.Duration]bool{}
				for range 200 {
					d := tc.policy.backoff(be.RetryAfter)
					if d < tc.lo || d > tc.hi {
						t.Fatalf("backoff(%v) = %v, outside [%v, %v]", be.RetryAfter, d, tc.lo, tc.hi)
					}
					drawn[d] = true
				}
				if tc.lo < tc.hi && len(drawn) < 2 {
					t.Fatalf("200 jittered draws all waited %v", tc.lo)
				}
			}
			// The deadline turns a policy that sleeps on a row's
			// hour-long hint into a failure instead of a hang.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			switch {
			case tc.cancel < 0:
				cancel()
			case tc.cancel > 0:
				time.AfterFunc(tc.cancel, cancel)
			}
			start := time.Now()
			v, err := tc.policy.Wait(ctx, tc.err, tc.attempt)
			took := time.Since(start)
			if v != tc.want || !errors.Is(err, tc.wantErr) {
				t.Fatalf("Wait = (%v, %v), want (%v, %v)", v, err, tc.want, tc.wantErr)
			}
			if took < tc.lo || took > tc.hi+2*time.Second {
				t.Fatalf("Wait took %v, want [%v, %v]", took, tc.lo, tc.hi)
			}
		})
	}
}

// TestPoll: a final answer in hand ends the poll at once; otherwise
// Poll GETs (at once when nothing is in hand) until done, and stops on
// any error, or on ctx with the job's last seen status.
func TestPoll(t *testing.T) {
	running := &BatchResponse{JobID: "job-1", Status: StatusRunning}
	done := &BatchResponse{JobID: "job-1", Status: StatusDone}
	script := func(answers ...any) (func(context.Context) (*BatchResponse, error), *int) {
		n := new(int)
		return func(context.Context) (*BatchResponse, error) {
			a := answers[min(*n, len(answers)-1)]
			*n++
			if err, ok := a.(error); ok {
				return nil, err
			}
			return a.(*BatchResponse), nil
		}, n
	}
	ctx := context.Background()

	get, n := script(done)
	if resp, err := Poll(ctx, time.Hour, done, get); resp != done || err != nil || *n != 0 {
		t.Fatalf("final answer in hand: (%v, %v) after %d GETs, want it back with no GET", resp, err, *n)
	}
	get, n = script(done)
	if resp, err := Poll(ctx, time.Hour, nil, get); resp != done || err != nil || *n != 1 {
		t.Fatalf("nothing in hand: (%v, %v) after %d GETs, want done after one immediate GET", resp, err, *n)
	}
	get, n = script(running, running, done)
	if resp, err := Poll(ctx, time.Millisecond, running, get); resp != done || err != nil || *n != 3 {
		t.Fatalf("202 in hand: (%v, %v) after %d GETs, want done after 3", resp, err, *n)
	}
	gone := &StatusError{Status: http.StatusNotFound}
	get, _ = script(running, gone)
	if _, err := Poll(ctx, time.Millisecond, nil, get); !errors.Is(err, gone) {
		t.Fatalf("unknown job: err %v, want the 404", err)
	}
	get, _ = script(running)
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	_, err := Poll(cctx, time.Millisecond, nil, get)
	if !errors.Is(err, context.DeadlineExceeded) || err.Error() != `job job-1 still "running": context deadline exceeded` {
		t.Fatalf("deadline: err %v, want the job's last status and ctx's error", err)
	}
}
