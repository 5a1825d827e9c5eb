package flow

import (
	"context"
	"time"
)

// RetryPolicy is the per-flow retry discipline the flow drivers
// (core.RunWithRetry, eval's worker pool) apply to transient failures:
// a flow that fails with a Retryable error is re-attempted up to
// Attempts times with capped exponential backoff between attempts.
//
// Each retry attempt runs with a fresh seed derived from the original
// (AttemptSeed), so a transient condition tied to one random trajectory
// — the congestion-retry exhaustion and Timer-divergence classes — gets
// a genuinely different run instead of replaying the same failure.
type RetryPolicy struct {
	// Attempts is the maximum number of times a flow runs (1 = no
	// retries; 0 behaves like 1).
	Attempts int
	// BaseDelay is the backoff before the first retry; each subsequent
	// retry doubles it, capped at MaxDelay. Zero means no sleeping —
	// tests and the deterministic evaluation use that.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0 = 30s).
	MaxDelay time.Duration
}

// NoRetry is the zero policy: one attempt, no backoff.
var NoRetry = RetryPolicy{Attempts: 1}

// DefaultRetryPolicy matches the evaluation suite's -retries flag: n
// attempts, 100ms base backoff capped at 5s, fresh seeds.
func DefaultRetryPolicy(attempts int) RetryPolicy {
	return RetryPolicy{Attempts: attempts, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
}

// normalized returns the policy with the zero-value defaults applied.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 30 * time.Second
	}
	return p
}

// AttemptSeed derives the seed of attempt n (0-based) from the run's
// base seed: attempt 0 is always the base seed; later attempts mix in a
// large odd constant so sibling designs' derived seeds cannot collide.
func (p RetryPolicy) AttemptSeed(base int64, attempt int) int64 {
	if attempt == 0 {
		return base
	}
	return base + int64(attempt)*0x4F1BBCDCBFA53E0B
}

// backoff returns how long to sleep before retry attempt n (1-based
// retry index; attempt 1 sleeps BaseDelay).
func (p RetryPolicy) backoff(retry int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// RetryTrace records what the retry loop did for one flow: how many
// attempts ran and the error of every failed attempt, in order. A clean
// first attempt leaves Attempts == 1 and Failures empty.
type RetryTrace struct {
	Attempts int
	Failures []error
}

// Do runs op under the policy: op(attempt, seed) is called with the
// 0-based attempt index and that attempt's derived seed until it
// succeeds, the error is not Retryable, attempts are exhausted, or ctx
// is cancelled during backoff. The trace records every attempt.
func (p RetryPolicy) Do(ctx context.Context, baseSeed int64, op func(attempt int, seed int64) error) (*RetryTrace, error) {
	p = p.normalized()
	if ctx == nil {
		ctx = context.Background()
	}
	tr := &RetryTrace{}
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			if d := p.backoff(attempt); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
					return tr, err // the previous attempt's error, not ctx.Err: it has attribution
				case <-t.C:
				}
			}
		}
		tr.Attempts = attempt + 1
		err = op(attempt, p.AttemptSeed(baseSeed, attempt))
		if err == nil {
			return tr, nil
		}
		tr.Failures = append(tr.Failures, err)
		if !Retryable(err) {
			return tr, err
		}
	}
	return tr, err
}
