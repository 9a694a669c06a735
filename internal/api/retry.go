package api

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ParseRetryAfter parses an RFC 9110 Retry-After value: either
// delta-seconds ("120") or an HTTP-date in any of the three accepted
// formats (IMF-fixdate, RFC 850, ANSI C asctime). It returns how long
// the sender asked the client to wait — measured from now for the
// date form — and whether the value was present and well-formed.
//
// ok distinguishes "Retry-After: 0" (a valid hint: retry immediately)
// from an absent or garbled header (no hint at all; for this API's
// 429s that means a permanent rejection, not an invitation to retry).
// A date in the past parses to 0, retry immediately, per the RFC's
// "delay-seconds = 0" equivalence. Negative delta-seconds are not
// valid delay-seconds and report ok=false. Delta-seconds beyond what a
// time.Duration holds (about 292 years) saturate at its maximum.
func ParseRetryAfter(value string, now time.Time) (wait time.Duration, ok bool) {
	value = strings.TrimSpace(value)
	if value == "" {
		return 0, false
	}
	// Out of int range, Atoi returns the nearest int with ErrRange.
	if secs, err := strconv.Atoi(value); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs < 0:
			return 0, false
		case int64(secs) > math.MaxInt64/int64(time.Second):
			return math.MaxInt64, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(value); err == nil {
		if wait := t.Sub(now); wait > 0 {
			return wait, true
		}
		return 0, true
	}
	return 0, false
}

// RetryPolicy is the one client answer to a 429, asked after each
// attempt by every resubmitting caller.
type RetryPolicy struct {
	// Retries bounds resubmissions after a retryable 429.
	Retries int
	// Ceiling caps the honoured Retry-After hint; 0 honours it as sent.
	Ceiling time.Duration
	// Jitter, when set, draws each nonzero wait uniformly from [½, 1]
	// of the capped hint, so retries from a fleet of clients do not
	// re-align into the next burst.
	Jitter *rand.Rand
}

// Verdict is RetryPolicy.Wait's answer.
type Verdict int

const (
	// Done: the attempt's answer stands — success, a non-429 error,
	// or a permanent *BusyError.
	Done Verdict = iota
	// GaveUp: a retryable 429, but the retry budget is spent.
	GaveUp
	// Waited: the policy slept on the (capped) hint; resubmit.
	Waited
)

// Wait decides what follows attempt number attempt (0 for the first
// try), whose Exchange error was err. For a retryable 429 within
// budget it sleeps on the capped hint (a zero hint resubmits at once)
// and answers Waited — with ctx's error if ctx is over, so no caller
// spins past a cancelled context.
func (p RetryPolicy) Wait(ctx context.Context, err error, attempt int) (Verdict, error) {
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Permanent {
		return Done, nil
	}
	if attempt >= p.Retries {
		return GaveUp, nil
	}
	return Waited, sleep(ctx, p.backoff(busy.RetryAfter))
}

// backoff is what Wait sleeps on a retryable hint.
func (p RetryPolicy) backoff(hint time.Duration) time.Duration {
	if p.Ceiling > 0 {
		hint = min(hint, p.Ceiling)
	}
	if p.Jitter != nil && hint > 0 {
		hint = hint/2 + time.Duration(p.Jitter.Int63n(int64(hint)+1))/2
	}
	return hint
}

// Poll follows an async job until it reports done or failed. get
// fetches the job's status; last is the answer already in hand (the
// 202), or nil to GET at once. Each later GET waits interval, and any
// error ends the poll — a ctx error naming the job's last status.
func Poll(ctx context.Context, interval time.Duration, last *BatchResponse, get func(context.Context) (*BatchResponse, error)) (*BatchResponse, error) {
	for {
		if last != nil {
			if last.Status == StatusDone || last.Status == StatusFailed {
				return last, nil
			}
			if err := sleep(ctx, interval); err != nil {
				return nil, fmt.Errorf("job %s still %q: %w", last.JobID, last.Status, err)
			}
		}
		var err error
		if last, err = get(ctx); err != nil {
			return nil, err
		}
	}
}

// sleep waits d, or until ctx ends, and returns ctx's error if it
// ended first: the one timer of the client retry and poll loops.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
