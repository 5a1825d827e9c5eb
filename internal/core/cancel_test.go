package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/flow"
)

// gate on goroutine counts: wait for any stragglers from earlier tests to
// settle, then return the baseline.
func goroutineBaseline(t *testing.T) int {
	t.Helper()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		n := runtime.NumGoroutine()
		if n <= base {
			base = n
		}
		time.Sleep(2 * time.Millisecond)
	}
	return base
}

func checkNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 { // allow runtime jitter
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d running, baseline %d", n, base)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A flow started with an already-cancelled context must fail before doing
// any work, with the failure attributed to a pipeline stage.
func TestRunAlreadyCancelled(t *testing.T) {
	src := genSrc(t, "aes", 0.02)
	base := goroutineBaseline(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, cfg := range []ConfigName{Config2D12T, ConfigM3D12T, ConfigHetero} {
		start := time.Now()
		r, err := Run(ctx, src, cfg, DefaultOptions(1.0))
		if r != nil || err == nil {
			t.Fatalf("%s: cancelled run returned (%v, %v)", cfg, r, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", cfg, err)
		}
		var fe *flow.Error
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %T is not a *flow.Error: %v", cfg, err, err)
		}
		if fe.Design != src.Name || fe.Config != string(cfg) || fe.Stage == "" {
			t.Errorf("%s: incomplete attribution: %+v", cfg, fe)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: cancelled run took %v, want prompt return", cfg, d)
		}
	}
	checkNoLeak(t, base)
}

// An expired deadline must abort the flow mid-pipeline with a
// DeadlineExceeded-wrapping stage error, well before the flow would have
// finished on its own.
func TestRunDeadlineExceeded(t *testing.T) {
	src := genSrc(t, "cpu", 0.05)
	base := goroutineBaseline(t)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // make the expiry deterministic

	start := time.Now()
	_, err := Run(ctx, src, ConfigHetero, DefaultOptions(1.0))
	if err == nil {
		t.Fatal("expired deadline: run succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	var fe *flow.Error
	if !errors.As(err, &fe) {
		t.Fatalf("error %T is not a *flow.Error: %v", err, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("aborted run took %v, want prompt return", d)
	}
	checkNoLeak(t, base)
}

// FindFmax must propagate cancellation from its probe runs.
func TestFindFmaxCancelled(t *testing.T) {
	src := genSrc(t, "aes", 0.02)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, _, err := FindFmax(ctx, DefaultFmaxOptions(), FlowProbe(src, Config2D12T, DefaultOptions(1)))
	if err == nil {
		t.Fatal("cancelled fmax search succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// Cancelling mid-run (not before) must also abort: start a flow, cancel
// shortly after, and require it to return a stage-attributed cancellation
// error rather than running to completion.
func TestRunCancelMidFlight(t *testing.T) {
	src := genSrc(t, "cpu", 0.05)
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, src, ConfigHetero, DefaultOptions(1.0))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if err == nil {
			// The flow legitimately finished before the cancel landed;
			// nothing to assert at this scale.
			return
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
		var fe *flow.Error
		if !errors.As(err, &fe) {
			t.Errorf("error %T is not a *flow.Error: %v", err, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled flow did not return within 30s")
	}
}

// Result.Stages must record one metric per executed pipeline stage, in
// order, for every flow kind.
func TestRunStageMetrics(t *testing.T) {
	src := genSrc(t, "aes", 0.02)
	want := map[ConfigName][]string{
		Config2D12T: {StageMap, StageSynth, StagePlace, StageLegalize, StageCTS, StageRepair, StagePower, StageSignoff},
		ConfigM3D12T: {StageMap, StageSynth, StageMacros, StagePlace, StagePartition, StageLegalize,
			StageCTS, StageRepair, StagePower, StageSignoff},
		ConfigHetero: {StageMap, StageSynth, StageMacros, StagePlace, StageTimingPartition, StagePartition,
			StageRetarget, StageShifters, StageLegalize, StageCTS, StageRepair, StageECO,
			StageFinalRepair, StagePower, StageSignoff},
	}
	for cfg, stages := range want {
		r, err := Run(context.Background(), src, cfg, DefaultOptions(1.0))
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if len(r.Stages) != len(stages) {
			t.Fatalf("%s: %d stage metrics, want %d: %+v", cfg, len(r.Stages), len(stages), r.Stages)
		}
		for i, m := range r.Stages {
			if m.Name != stages[i] {
				t.Errorf("%s: stage[%d] = %q, want %q", cfg, i, m.Name, stages[i])
			}
			if m.Wall < 0 {
				t.Errorf("%s: stage %s negative wall time %v", cfg, m.Name, m.Wall)
			}
		}
		if last := r.Stages[len(r.Stages)-1]; last.Cells == 0 {
			t.Errorf("%s: final stage recorded 0 cells", cfg)
		}
	}
}
