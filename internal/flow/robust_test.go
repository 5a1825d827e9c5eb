package flow

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestRunPanicRecovered(t *testing.T) {
	c := NewContext(context.Background(), "cpu", "Hetero-M3D", 1)
	err := Run(c, nil, []Stage{
		{Name: "map", Run: func(*Context) error { return nil }},
		{Name: "place", Run: func(*Context) error { panic("index out of range [12]") }},
		{Name: "cts", Run: func(*Context) error { t.Fatal("stage after panic ran"); return nil }},
	})
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("want *flow.Error, got %T: %v", err, err)
	}
	if fe.Design != "cpu" || fe.Config != "Hetero-M3D" || fe.Stage != "place" {
		t.Errorf("attribution = %s/%s/%s", fe.Design, fe.Config, fe.Stage)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError in chain, got %v", err)
	}
	if pe.Value != "index out of range [12]" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	ms := c.Metrics()
	if len(ms) != 2 {
		t.Fatalf("got %d metrics, want 2 (map + the panicking place)", len(ms))
	}
	if ms[1].Stats[StatPanicsRecovered] != 1 {
		t.Errorf("place stats = %v, want %s=1", ms[1].Stats, StatPanicsRecovered)
	}
}

func TestRunPanicWithErrorValueUnwraps(t *testing.T) {
	c := NewContext(context.Background(), "aes", "2D-9T", 1)
	cause := errors.New("injected")
	err := Run(c, nil, []Stage{{Name: "route", Run: func(*Context) error { panic(cause) }}})
	if !errors.Is(err, cause) {
		t.Errorf("errors.Is should see through the recovered panic, got %v", err)
	}
}

// boundaryLog is a Boundary that records every call, in order, and
// delegates to the per-case behaviour (a nil func succeeds, a nil absorb
// declines). Commit logs how many metrics it sees.
type boundaryLog struct {
	before, after, commit func(c *Context, stage string) error
	absorb                func(c *Context, stage string, err error) bool
	cells                 int
	calls                 []string
}

func (b *boundaryLog) hook(fn func(*Context, string) error, c *Context, call, stage string) error {
	b.calls = append(b.calls, call+" "+stage)
	if fn == nil {
		return nil
	}
	return fn(c, stage)
}

func (b *boundaryLog) Before(c *Context, stage string) error {
	return b.hook(b.before, c, "before", stage)
}

func (b *boundaryLog) After(c *Context, stage string) error {
	return b.hook(b.after, c, "after", stage)
}

func (b *boundaryLog) Commit(c *Context, stage string) error {
	return b.hook(b.commit, c, fmt.Sprintf("commit(%d)", len(c.Metrics())), stage)
}

func (b *boundaryLog) Absorb(c *Context, stage string, err error) bool {
	b.calls = append(b.calls, "absorb "+stage)
	return b.absorb != nil && b.absorb(c, stage, err)
}

func (b *boundaryLog) Cells() int { return b.cells }

// TestBoundaryContract pins the order and failure semantics of the
// stage-boundary calls Run makes: Before → body → After behind one
// barrier, Absorb on failure, Commit after the metric is appended.
func TestBoundaryContract(t *testing.T) {
	boom := errors.New("boom")
	failing := func(*Context, string) error { return boom }
	absorb := func(fc *Context, stage string, err error) bool {
		fc.MarkDegraded(DegradeFullSTA)
		return true
	}
	failOnce := func() func(*Context) error {
		runs := 0
		return func(*Context) error {
			if runs++; runs == 1 {
				return boom
			}
			return nil
		}
	}
	type stats = map[string]int64
	cases := []struct {
		name   string
		b      boundaryLog
		stages []Stage // a nil Run succeeds
		// wantErr is the cause Run must return (nil = success), attributed
		// to wantStage; wantPanic asks for a *PanicError in the chain.
		wantErr   error
		wantPanic bool
		wantStage string
		wantCalls []string
		wantStats []stats // one per recorded metric
		wantDegr  int     // recorded degradations
	}{
		{
			name: "after stats land in the metric",
			b: boundaryLog{after: func(fc *Context, _ string) error {
				fc.AddStat(StatCheckViolations, 1)
				return nil
			}},
			stages: []Stage{
				{Name: "map", Run: func(fc *Context) error { fc.AddStat(StatSTAFull, 1); return nil }},
				{Name: "place"},
			},
			wantCalls: []string{"before map", "run map", "after map", "commit(1) map",
				"before place", "run place", "after place", "commit(2) place"},
			wantStats: []stats{{StatSTAFull: 1, StatCheckViolations: 1}, {StatCheckViolations: 1}},
		},
		{
			name: "after error fails the stage",
			b: boundaryLog{after: func(_ *Context, stage string) error {
				if stage == "legalize" {
					return boom
				}
				return nil
			}},
			stages:    []Stage{{Name: "map"}, {Name: "legalize"}, {Name: "cts"}},
			wantErr:   boom,
			wantStage: "legalize",
			wantCalls: []string{"before map", "run map", "after map", "commit(1) map",
				"before legalize", "run legalize", "after legalize", "absorb legalize"},
			wantStats: []stats{nil, nil},
		},
		{
			name:      "after skipped on stage error",
			stages:    []Stage{{Name: "map", Run: func(*Context) error { return boom }}},
			wantErr:   boom,
			wantStage: "map",
			wantCalls: []string{"before map", "run map", "absorb map"},
			wantStats: []stats{nil},
		},
		{
			name: "after error is absorbable",
			b: boundaryLog{after: func() func(*Context, string) error {
				checks := 0
				return func(*Context, string) error {
					if checks++; checks == 1 {
						return boom
					}
					return nil
				}
			}(), absorb: absorb},
			stages: []Stage{{Name: "cts"}},
			wantCalls: []string{"before cts", "run cts", "after cts", "absorb cts",
				"before cts", "run cts", "after cts", "commit(1) cts"},
			wantStats: []stats{{StatStageReruns: 1}},
			wantDegr:  1,
		},
		{
			name:   "absorbed failure reruns the stage",
			b:      boundaryLog{absorb: absorb},
			stages: []Stage{{Name: "repair", Run: failOnce()}},
			wantCalls: []string{"before repair", "run repair", "absorb repair",
				"before repair", "run repair", "after repair", "commit(1) repair"},
			wantStats: []stats{{StatStageReruns: 1}},
			wantDegr:  1,
		},
		{
			name:      "reruns are bounded",
			b:         boundaryLog{absorb: absorb},
			stages:    []Stage{{Name: "repair", Run: func(*Context) error { return boom }}},
			wantErr:   boom,
			wantStage: "repair",
			wantCalls: []string{"before repair", "run repair", "absorb repair",
				"before repair", "run repair", "absorb repair", "before repair", "run repair"},
			wantStats: []stats{{StatStageReruns: maxStageReruns}},
			wantDegr:  1,
		},
		{
			name:      "canceled is never absorbed",
			b:         boundaryLog{absorb: absorb},
			stages:    []Stage{{Name: "place", Run: func(*Context) error { return fmt.Errorf("aborted: %w", context.Canceled) }}},
			wantErr:   context.Canceled,
			wantStage: "place",
			wantCalls: []string{"before place", "run place"},
			wantStats: []stats{nil},
		},
		{
			name:      "deadline is never absorbed",
			b:         boundaryLog{absorb: absorb},
			stages:    []Stage{{Name: "place", Run: func(*Context) error { return fmt.Errorf("aborted: %w", context.DeadlineExceeded) }}},
			wantErr:   context.DeadlineExceeded,
			wantStage: "place",
			wantCalls: []string{"before place", "run place"},
			wantStats: []stats{nil},
		},
		{
			name:      "declined absorb does not rerun",
			b:         boundaryLog{absorb: func(*Context, string, error) bool { return false }},
			stages:    []Stage{{Name: "route", Run: func(*Context) error { return boom }}},
			wantErr:   boom,
			wantStage: "route",
			wantCalls: []string{"before route", "run route", "absorb route"},
			wantStats: []stats{nil},
		},
		{
			name:      "before error fails the stage",
			b:         boundaryLog{before: failing},
			stages:    []Stage{{Name: "place"}},
			wantErr:   boom,
			wantStage: "place",
			wantCalls: []string{"before place", "absorb place"},
			wantStats: []stats{nil},
		},
		{
			name:      "before panic fails the stage",
			b:         boundaryLog{before: func(*Context, string) error { panic(boom) }},
			stages:    []Stage{{Name: "place"}},
			wantErr:   boom,
			wantPanic: true,
			wantStage: "place",
			wantCalls: []string{"before place", "absorb place"},
			wantStats: []stats{{StatPanicsRecovered: 1}},
		},
		{
			name:      "commit error is never absorbed",
			b:         boundaryLog{commit: failing, absorb: absorb},
			stages:    []Stage{{Name: "place"}, {Name: "cts"}},
			wantErr:   boom,
			wantStage: "place",
			wantCalls: []string{"before place", "run place", "after place", "commit(1) place"},
			wantStats: []stats{nil},
		},
		{
			name:      "commit panic fails the stage and is counted",
			b:         boundaryLog{commit: func(*Context, string) error { panic("disk full") }, absorb: absorb},
			stages:    []Stage{{Name: "place"}},
			wantPanic: true,
			wantStage: "place",
			wantCalls: []string{"before place", "run place", "after place", "commit(1) place"},
			wantStats: []stats{{StatPanicsRecovered: 1}},
		},
		{
			// A stage that fails once, is absorbed, then panics on both
			// re-runs: every recovered panic counts, not only the first
			// execution's.
			name: "panics on reruns are counted",
			b:    boundaryLog{absorb: absorb},
			stages: []Stage{{Name: "repair", Run: func() func(*Context) error {
				runs := 0
				return func(*Context) error {
					if runs++; runs == 1 {
						return boom
					}
					panic("diverged again")
				}
			}()}},
			wantPanic: true,
			wantStage: "repair",
			wantCalls: []string{"before repair", "run repair", "absorb repair",
				"before repair", "run repair", "absorb repair", "before repair", "run repair"},
			wantStats: []stats{{StatStageReruns: maxStageReruns, StatPanicsRecovered: maxStageReruns}},
			wantDegr:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewContext(context.Background(), "cpu", "Hetero-M3D", 1)
			sink := &recordSink{}
			c.Sink = sink
			b := tc.b
			var stages []Stage
			for _, st := range tc.stages {
				st := st
				stages = append(stages, Stage{Name: st.Name, Run: func(fc *Context) error {
					b.calls = append(b.calls, "run "+st.Name)
					if st.Run == nil {
						return nil
					}
					return st.Run(fc)
				}})
			}
			err := Run(c, &b, stages)

			if !tc.wantPanic && tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
			} else {
				var fe *Error
				if !errors.As(err, &fe) || fe.Design != "cpu" || fe.Config != "Hetero-M3D" || fe.Stage != tc.wantStage {
					t.Fatalf("err = %v, want a *flow.Error attributed to cpu/Hetero-M3D/%s", err, tc.wantStage)
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Errorf("err = %v, want it to wrap %v", err, tc.wantErr)
				}
				var pe *PanicError
				if got := errors.As(err, &pe); got != tc.wantPanic {
					t.Errorf("*PanicError in chain = %v, want %v (err %v)", got, tc.wantPanic, err)
				}
				// The failing stage's done event reports the failure.
				want := fmt.Sprintf("done cpu/Hetero-M3D/%s err cells=0", tc.wantStage)
				if last := sink.events[len(sink.events)-1]; last != want {
					t.Errorf("last sink event = %q, want %q", last, want)
				}
			}
			if fmt.Sprint(b.calls) != fmt.Sprint(tc.wantCalls) {
				t.Errorf("calls = %q\nwant    %q", b.calls, tc.wantCalls)
			}
			ms := c.Metrics()
			if len(ms) != len(tc.wantStats) {
				t.Fatalf("got %d metrics, want %d", len(ms), len(tc.wantStats))
			}
			for i, want := range tc.wantStats {
				if got := ms[i].Stats; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("metric %s stats = %v, want %v", ms[i].Name, got, want)
				}
			}
			if got := len(c.Degradations()); got != tc.wantDegr {
				t.Errorf("degradations = %v, want %d", c.Degradations(), tc.wantDegr)
			}
		})
	}
}

func TestMarkDegradedDedupes(t *testing.T) {
	c := NewContext(context.Background(), "d", "c", 1)
	c.MarkDegraded(DegradeFullSTA)
	c.MarkDegraded(DegradeUtil)
	c.MarkDegraded(DegradeFullSTA)
	got := c.Degradations()
	if len(got) != 2 || got[0] != DegradeFullSTA || got[1] != DegradeUtil {
		t.Errorf("degradations = %v", got)
	}
	var nilC *Context
	nilC.MarkDegraded("x") // must not panic
	if nilC.Degradations() != nil {
		t.Error("nil context should report no degradations")
	}
}

func TestRetryableChain(t *testing.T) {
	base := errors.New("congestion budget exhausted")
	if Retryable(base) {
		t.Error("plain error must not be retryable")
	}
	marked := MarkRetryable(base)
	if !Retryable(marked) {
		t.Error("marked error must be retryable")
	}
	wrapped := &Error{Design: "cpu", Config: "Hetero-M3D", Stage: "place", Err: marked}
	if !Retryable(wrapped) {
		t.Error("Retryable must walk the Unwrap chain")
	}
	if !errors.Is(wrapped, base) {
		t.Error("marking must stay transparent to errors.Is")
	}
	cancelled := MarkRetryable(fmt.Errorf("run: %w", context.Canceled))
	if Retryable(cancelled) {
		t.Error("cancellation is never retryable, even marked")
	}
	if MarkRetryable(nil) != nil {
		t.Error("MarkRetryable(nil) must stay nil")
	}
}

func TestAttemptSeeds(t *testing.T) {
	p := DefaultRetryPolicy(4)
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		s := p.AttemptSeed(7, i)
		if seen[s] {
			t.Errorf("attempt %d reuses seed %d", i, s)
		}
		seen[s] = true
	}
	if p.AttemptSeed(7, 0) != 7 {
		t.Error("attempt 0 must run the original seed")
	}
}

func TestRetryPolicyDo(t *testing.T) {
	p := RetryPolicy{Attempts: 3} // no backoff: deterministic and instant
	var seeds []int64
	fails := 2
	trace, err := p.Do(context.Background(), 11, func(attempt int, seed int64) error {
		seeds = append(seeds, seed)
		if attempt < fails {
			return MarkRetryable(errors.New("transient"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("third attempt should succeed: %v", err)
	}
	if trace.Attempts != 3 || len(trace.Failures) != 2 {
		t.Errorf("trace = %+v", trace)
	}
	if seeds[0] != 11 || seeds[1] == 11 || seeds[2] == 11 || seeds[1] == seeds[2] {
		t.Errorf("seeds = %v, want base then distinct derived", seeds)
	}
}

func TestRetryPolicyStopsOnPermanentError(t *testing.T) {
	p := RetryPolicy{Attempts: 5}
	boom := errors.New("permanent")
	calls := 0
	trace, err := p.Do(context.Background(), 1, func(int, int64) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 || trace.Attempts != 1 {
		t.Errorf("permanent error must stop retries: calls=%d trace=%+v err=%v", calls, trace, err)
	}
}

func TestRetryPolicyExhaustsAttempts(t *testing.T) {
	p := RetryPolicy{Attempts: 3}
	boom := MarkRetryable(errors.New("always transient"))
	calls := 0
	trace, err := p.Do(context.Background(), 1, func(int, int64) error { calls++; return boom })
	if err == nil || calls != 3 || trace.Attempts != 3 || len(trace.Failures) != 3 {
		t.Errorf("exhaustion: calls=%d trace=%+v err=%v", calls, trace, err)
	}
}

func TestRetryPolicyBackoffCancellable(t *testing.T) {
	p := RetryPolicy{Attempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	first := MarkRetryable(errors.New("transient"))
	done := make(chan struct{})
	var trace *RetryTrace
	var err error
	go func() {
		defer close(done)
		trace, err = p.Do(ctx, 1, func(int, int64) error { cancel(); return first })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation during backoff")
	}
	if !errors.Is(err, first) || trace.Attempts != 1 {
		t.Errorf("cancelled backoff should return the attempt's error: trace=%+v err=%v", trace, err)
	}
}

func TestBackoffCaps(t *testing.T) {
	p := RetryPolicy{Attempts: 10, BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
	if d := p.backoff(1); d != 100*time.Millisecond {
		t.Errorf("backoff(1) = %v", d)
	}
	if d := p.backoff(2); d != 200*time.Millisecond {
		t.Errorf("backoff(2) = %v", d)
	}
	if d := p.backoff(5); d != 400*time.Millisecond {
		t.Errorf("backoff(5) = %v, want the cap", d)
	}
	zero := RetryPolicy{}
	if d := zero.backoff(3); d != 0 {
		t.Errorf("no BaseDelay must mean no sleep, got %v", d)
	}
}
