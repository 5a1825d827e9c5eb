package eval

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/flow"
)

// countingSink tallies every event category; all methods are called from
// worker goroutines, so the counters are atomic.
type countingSink struct {
	stageStarts atomic.Int32
	stageDones  atomic.Int32
	fmax        atomic.Int32
	configs     atomic.Int32
}

func (c *countingSink) StageStart(design, config, stage string) { c.stageStarts.Add(1) }
func (c *countingSink) StageDone(design, config, stage string, m flow.StageMetric, err error) {
	c.stageDones.Add(1)
}
func (c *countingSink) FmaxDone(design string, cells int, fmaxGHz float64) { c.fmax.Add(1) }
func (c *countingSink) ConfigDone(design string, config core.ConfigName, p *core.PPAC) {
	c.configs.Add(1)
}

// The tentpole determinism guarantee: a suite run on one worker and a
// suite run on eight workers produce byte-identical PPAC records and f_max
// values.
func TestRunSuiteDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Suite {
		t.Helper()
		opt := DefaultSuiteOptions(0.02)
		opt.FmaxIterations = 3
		opt.Designs = []designs.Name{designs.AES, designs.CPU}
		opt.Workers = workers
		s, err := RunSuite(context.Background(), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return s
	}
	serial := run(1)
	parallel := run(8)

	for _, dn := range serial.DesignsInOrder() {
		if sf, pf := serial.Fmax[dn], parallel.Fmax[dn]; sf != pf {
			t.Errorf("%s: fmax %v (serial) != %v (8 workers)", dn, sf, pf)
		}
		for cfg, sr := range serial.Results[dn] {
			pr, ok := parallel.Results[dn][cfg]
			if !ok {
				t.Errorf("%s/%s: missing from parallel run", dn, cfg)
				continue
			}
			if sp, pp := *sr.PPAC, *pr.PPAC; sp != pp {
				t.Errorf("%s/%s: PPAC diverges across worker counts:\nserial:   %+v\nparallel: %+v", dn, cfg, sp, pp)
			}
		}
	}
}

// A pre-cancelled context must abort the whole suite promptly, return a
// cancellation error, and leave no worker goroutines behind.
func TestRunSuiteCancelled(t *testing.T) {
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	opt := DefaultSuiteOptions(0.02)
	opt.Designs = []designs.Name{designs.AES}
	start := time.Now()
	s, err := RunSuite(ctx, opt)
	if s != nil || err == nil {
		t.Fatalf("cancelled suite returned (%v, %v)", s, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled suite took %v, want prompt return", d)
	}

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A deadline expiring mid-suite must surface DeadlineExceeded, not a
// partial result.
func TestRunSuiteDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	opt := DefaultSuiteOptions(0.05)
	opt.FmaxIterations = 3
	s, err := RunSuite(ctx, opt)
	if err == nil {
		t.Skip("suite finished inside 20ms; machine too fast for this deadline")
	}
	if s != nil {
		t.Errorf("timed-out suite returned a partial result")
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Errorf("error %v wraps neither DeadlineExceeded nor Canceled", err)
	}
}

// An AES-only suite reports one FmaxDone and one ConfigDone per config.
// Its 2D-12T flows are the f_max probes: every 2D-12T stage event,
// sign-off included, arrives before FmaxDone, and no 2D-12T flow runs
// after it.
func TestRunSuiteEvents(t *testing.T) {
	log := &eventLog{}
	opt := DefaultSuiteOptions(0.02)
	opt.FmaxIterations = 2
	opt.Designs = []designs.Name{designs.AES}
	opt.Events = log
	s, err := RunSuite(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := layoutFlows(s); len(got) != 0 {
		t.Errorf("an AES-only suite kept layouts for %v; no figure draws AES", got)
	}
	nFmax, fmaxAt, _ := log.count("fmax aes")
	if nFmax != 1 {
		t.Errorf("FmaxDone called %d times, want 1", nFmax)
	}
	if got, _, _ := log.count("config "); got != len(core.AllConfigs) {
		t.Errorf("ConfigDone called %d times, want %d", got, len(core.AllConfigs))
	}
	starts, _, _ := log.count("start ")
	if dones, _, _ := log.count("done "); starts == 0 || dones != starts {
		t.Errorf("stage events unbalanced: %d starts, %d dones", starts, dones)
	}
	signoffs, _, lastSignoff := log.count("done aes/2D-12T/" + core.StageSignoff)
	if signoffs == 0 || lastSignoff > fmaxAt {
		t.Errorf("%d 2D-12T sign-offs, the last at event %d, FmaxDone at %d; want all inside the search",
			signoffs, lastSignoff, fmaxAt)
	}
	if _, _, lastStart := log.count("start aes/2D-12T/"); lastStart > fmaxAt {
		t.Errorf("a 2D-12T stage started at event %d, after FmaxDone at %d", lastStart, fmaxAt)
	}
}
