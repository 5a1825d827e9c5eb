package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/sta"
)

// metricSink collects per-stage metrics keyed by stage name (last run
// wins), race-safe for parallel flows.
type metricSink struct {
	mu sync.Mutex
	ms map[string]flow.StageMetric
}

func (s *metricSink) StageStart(design, config, stage string) {}
func (s *metricSink) StageDone(design, config, stage string, m flow.StageMetric, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ms == nil {
		s.ms = make(map[string]flow.StageMetric)
	}
	s.ms[stage] = m
}

func (s *metricSink) stat(stage, key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ms[stage].Stats[key]
}

func sumStat(stages []flow.StageMetric, key string) int64 {
	var n int64
	for _, m := range stages {
		n += m.Stats[key]
	}
	return n
}

// TestFaultInjectionMatrix drives every fault class through the full
// heterogeneous pipeline and asserts the contract of each: recovery with
// a degraded-mode marker where the flow can absorb the fault, or a
// failure attributed to the exact design/config/stage where it cannot.
func TestFaultInjectionMatrix(t *testing.T) {
	src := cpuSrc(t)
	clean := runCfg(t, src, ConfigHetero, testClock)

	cases := []struct {
		name string
		spec string
		// check enables boundary checking (needed to detect the silent
		// journal corruption).
		check CheckMode
		// wantStage is the stage the failure must be attributed to
		// ("" = the run must succeed).
		wantStage string
		// wantCause is matched with errors.Is against the failure.
		wantCause error
		retryable bool
		// wantDegraded is the expected Result.Degraded of a recovered run.
		wantDegraded []string
	}{
		{
			name:      "panic-attributed",
			spec:      "cpu/Hetero-M3D/place=panic",
			wantStage: StagePlace,
		},
		{
			name:      "error-attributed",
			spec:      "*/*/cts=error",
			wantStage: StageCTS,
		},
		{
			name:      "error-retryable-marked",
			spec:      "*/*/cts=error:retryable",
			wantStage: StageCTS,
			retryable: true,
		},
		{
			name:      "cancel-polled-mid-stage",
			spec:      "*/*/timing-repair=cancel",
			wantStage: StageRepair,
			wantCause: context.Canceled,
		},
		{
			name:      "timeout-attributed",
			spec:      "*/*/eco=timeout",
			wantStage: StageECO,
			wantCause: context.DeadlineExceeded,
		},
		{
			name:         "corrupt-cache-recovered",
			spec:         "*/*/eco=corrupt:extraction-cache",
			wantDegraded: []string{flow.DegradeFullSTA},
		},
		{
			// Sign-off's wirelength and MIV sums read the store's slots:
			// the audit must catch the poison before they (or power) do.
			name:         "corrupt-cache-at-signoff-recovered",
			spec:         "*/*/signoff=corrupt:extraction-cache",
			wantDegraded: []string{flow.DegradeFullSTA},
		},
		{
			name:         "corrupt-journal-recovered",
			spec:         "*/*/power-recovery=corrupt:journal",
			check:        CheckFull,
			wantDegraded: []string{flow.DegradeFullSTA},
		},
		{
			name:      "corrupt-cache-too-early-fails-with-attribution",
			spec:      "*/*/place=corrupt:extraction-cache",
			wantStage: StagePlace,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			plan, err := fault.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sink := &metricSink{}
			opt := DefaultOptions(testClock)
			opt.Fault = plan
			opt.Events = sink
			opt.Check = tc.check
			r, err := Run(context.Background(), src, ConfigHetero, opt)

			if tc.wantStage != "" { // must fail, with exact attribution
				var fe *flow.Error
				if !errors.As(err, &fe) {
					t.Fatalf("want *flow.Error, got %T: %v", err, err)
				}
				if fe.Design != "cpu" || fe.Config != string(ConfigHetero) || fe.Stage != tc.wantStage {
					t.Errorf("attributed to %s/%s/%s, want cpu/%s/%s",
						fe.Design, fe.Config, fe.Stage, ConfigHetero, tc.wantStage)
				}
				if tc.wantCause != nil && !errors.Is(err, tc.wantCause) {
					t.Errorf("errors.Is(%v) false for %v", tc.wantCause, err)
				}
				if got := flow.Retryable(err); got != tc.retryable {
					t.Errorf("Retryable = %v, want %v", got, tc.retryable)
				}
				var inj *fault.Injected
				if tc.wantCause == nil && tc.name != "corrupt-cache-too-early-fails-with-attribution" &&
					!errors.As(err, &inj) {
					t.Errorf("injection record lost from chain: %v", err)
				}
				if tc.name == "panic-attributed" {
					var pe *flow.PanicError
					if !errors.As(err, &pe) {
						t.Errorf("want *flow.PanicError in chain, got %v", err)
					}
					if sink.stat(StagePlace, flow.StatPanicsRecovered) != 1 {
						t.Errorf("place stats = %v, want one recovered panic", sink.ms[StagePlace].Stats)
					}
				}
				return
			}

			// Must recover with degradation.
			if err != nil {
				t.Fatalf("flow should absorb %s: %v", tc.spec, err)
			}
			if len(r.Degraded) != len(tc.wantDegraded) {
				t.Fatalf("Degraded = %v, want %v", r.Degraded, tc.wantDegraded)
			}
			for i := range tc.wantDegraded {
				if r.Degraded[i] != tc.wantDegraded[i] {
					t.Errorf("Degraded = %v, want %v", r.Degraded, tc.wantDegraded)
				}
			}
			if n := sumStat(r.Stages, flow.StatFaultsInjected); n != 1 {
				t.Errorf("faults injected = %d, want 1", n)
			}
			if n := sumStat(r.Stages, flow.StatStageReruns); n < 1 {
				t.Error("recovery must re-run the failed stage")
			}
			if n := sumStat(r.Stages, flow.StatDegradeFullSTA); n < 1 {
				t.Error("full-STA downgrade not counted")
			}
			// The degradation rebuilds every engine view from ground truth
			// before the re-run, so the recovered flow's sign-off must match
			// the clean flow exactly.
			if r.PPAC.WNS != clean.PPAC.WNS || r.PPAC.PowerMW != clean.PPAC.PowerMW ||
				r.PPAC.WLm != clean.PPAC.WLm {
				t.Errorf("degraded run diverged from clean: WNS %v vs %v, P %v vs %v, WL %v vs %v",
					r.PPAC.WNS, clean.PPAC.WNS, r.PPAC.PowerMW, clean.PPAC.PowerMW, r.PPAC.WLm, clean.PPAC.WLm)
			}
			if len(plan.Pending()) != 0 {
				t.Errorf("injections never fired: %v", plan.Pending())
			}
		})
	}
}

// TestFaultRetryIntegration proves the retry policy turns a transient
// injected failure into a recovered flow: the fault fires on the first
// attempt only (occurrence counting), the second attempt runs clean on a
// fresh derived seed.
func TestFaultRetryIntegration(t *testing.T) {
	src := cpuSrc(t)
	plan, err := fault.ParseSpec("*/*/cts@1=error:retryable")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(testClock)
	opt.Fault = plan
	r, trace, err := RunWithRetry(context.Background(), src, ConfigHetero, opt, flow.RetryPolicy{Attempts: 2})
	if err != nil {
		t.Fatalf("second attempt should succeed: %v", err)
	}
	if trace.Attempts != 2 || len(trace.Failures) != 1 {
		t.Errorf("trace = %+v, want 2 attempts with 1 failure", trace)
	}
	var fe *flow.Error
	if !errors.As(trace.Failures[0], &fe) || fe.Stage != StageCTS {
		t.Errorf("first failure lost attribution: %v", trace.Failures[0])
	}
	if r == nil || r.PPAC == nil {
		t.Fatal("no result from the recovered attempt")
	}
}

// TestFaultNonRetryableStopsRetry: a permanent injected error must not
// consume extra attempts even under a generous policy.
func TestFaultNonRetryableStopsRetry(t *testing.T) {
	src := cpuSrc(t)
	plan, err := fault.ParseSpec("*/*/cts=error")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(testClock)
	opt.Fault = plan
	_, trace, err := RunWithRetry(context.Background(), src, ConfigHetero, opt, flow.RetryPolicy{Attempts: 3})
	if err == nil {
		t.Fatal("permanent injected error must fail the flow")
	}
	if trace.Attempts != 1 {
		t.Errorf("ran %d attempts, want 1", trace.Attempts)
	}
}

// TestCancelInjectionPromptness: the cancel class models an external
// abort arriving at a stage boundary; the repair loop's mid-stage polling
// must notice before the stage completes, and the abort must never be
// absorbed by degradation or retry.
func TestCancelInjectionPromptness(t *testing.T) {
	src := cpuSrc(t)
	plan, err := fault.ParseSpec("*/*/timing-repair=cancel")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(testClock)
	opt.Fault = plan
	_, trace, err := RunWithRetry(context.Background(), src, ConfigM3D12T, opt, flow.RetryPolicy{Attempts: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled through the chain, got %v", err)
	}
	var fe *flow.Error
	if !errors.As(err, &fe) || fe.Stage != StageRepair {
		t.Errorf("cancellation not attributed to the polling stage: %v", err)
	}
	if trace.Attempts != 1 {
		t.Errorf("cancellation retried %d times, want 1 attempt", trace.Attempts)
	}
}

// TestCorruptSettlesTimingFirst: a corruption models damage after the
// last stage finished, so the timing result that stage handed on must
// answer exactly as it would have without the corruption — also when an
// incremental update still owed its required times. Without the settle,
// a rewound journal makes the owed settle panic and a poisoned store
// feeds it wrong wire delays.
func TestCorruptSettlesTimingFirst(t *testing.T) {
	for _, target := range []string{fault.TargetJournal, fault.TargetCache} {
		d := cpuSrc(t)
		for i, inst := range d.Instances {
			inst.SetLoc(geom.Pt(float64(i%83)*2, float64((i*7)%61)*2))
		}
		cache := route.NewCache(route.New(), d)
		tm, err := sta.NewTimer(d, STAConfig(1/testClock, cache, nil, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tm.Update(); err != nil {
			t.Fatal(err)
		}
		d.Instances[len(d.Instances)/2].SetLoc(geom.Pt(40, 40))
		res, err := tm.Update()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sta.NewTimer(d, STAConfig(1/testClock, route.New(), nil, 1))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ref.Update()
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.SlackMap()
		before := tm.Stats().RequiredSweeps

		s := &flowState{d: d, cache: cache, st: res}
		if err := s.Corrupt(target); err != nil {
			t.Fatal(err)
		}
		if tm.Stats().RequiredSweeps != before+1 {
			t.Errorf("%s: corruption did not settle the owed required times first", target)
		}
		got := res.SlackMap()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: slack of instance %d = %v after the corruption, want %v", target, i, got[i], want[i])
			}
		}
	}
}
