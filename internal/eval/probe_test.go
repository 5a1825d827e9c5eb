package eval

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/flow"
)

// eventLog records every suite event in arrival order, one line each:
// "start d/c/stage", "done d/c/stage" (with " err" on failure),
// "fmax d", "config d/c".
type eventLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *eventLog) add(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *eventLog) StageStart(design, config, stage string) {
	l.add("start %s/%s/%s", design, config, stage)
}
func (l *eventLog) StageDone(design, config, stage string, m flow.StageMetric, err error) {
	if err != nil {
		l.add("done %s/%s/%s err", design, config, stage)
		return
	}
	l.add("done %s/%s/%s", design, config, stage)
}
func (l *eventLog) FmaxDone(design string, cells int, fmaxGHz float64) { l.add("fmax %s", design) }
func (l *eventLog) ConfigDone(design string, config core.ConfigName, p *core.PPAC) {
	l.add("config %s/%s", design, config)
}

// count returns how many lines start with prefix, and the index of the
// first and last of them (-1 when none).
func (l *eventLog) count(prefix string) (n, first, last int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first, last = -1, -1
	for i, line := range l.lines {
		if strings.HasPrefix(line, prefix) {
			if n++; first < 0 {
				first = i
			}
			last = i
		}
	}
	return n, first, last
}

// probeSuiteOpts is the small suite of the probe tests: one design at
// scale 0.02 in 2D-12T and Hetero-M3D.
func probeSuiteOpts(design designs.Name) SuiteOptions {
	opt := DefaultSuiteOptions(0.02)
	opt.FmaxIterations = 3
	opt.Designs = []designs.Name{design}
	opt.Configs = []core.ConfigName{core.Config2D12T, core.ConfigHetero}
	return opt
}

// TestFaultInProbes: the suite's fault plan and retry policy apply to the
// f_max probes, which are the only 2D-12T flows a suite runs. A transient
// fault at the first 2D-12T placement is retried inside the search; a
// permanent one fails the suite with the probe's stage attribution.
func TestFaultInProbes(t *testing.T) {
	t.Run("retryable", func(t *testing.T) {
		plan, err := fault.ParseSpec("cpu/2D-12T/place@1=error:retryable")
		if err != nil {
			t.Fatal(err)
		}
		log := &eventLog{}
		opt := probeSuiteOpts(designs.CPU)
		opt.Fault = plan
		opt.Retry = flow.RetryPolicy{Attempts: 2}
		opt.Events = log
		s, err := RunSuite(context.Background(), opt)
		if err != nil {
			t.Fatalf("a retried transient fault failed the suite: %v", err)
		}
		fired := plan.Fired()
		if len(fired) != 1 || fired[0].Config != string(core.Config2D12T) || fired[0].At != core.StagePlace {
			t.Fatalf("fired %+v, want one injection at cpu/2D-12T/place", fired)
		}
		// It fired in a probe: the failed placement precedes FmaxDone.
		_, failed, _ := log.count("done cpu/2D-12T/place err")
		_, fmaxAt, _ := log.count("fmax cpu")
		if failed < 0 || fmaxAt < 0 || failed > fmaxAt {
			t.Errorf("failed placement at event %d, FmaxDone at %d; want the failure inside the search", failed, fmaxAt)
		}
		for _, cfg := range opt.Configs {
			if s.Results[designs.CPU][cfg] == nil {
				t.Errorf("no %s record", cfg)
			}
		}
	})
	t.Run("permanent", func(t *testing.T) {
		plan, err := fault.ParseSpec("cpu/2D-12T/place@1=error")
		if err != nil {
			t.Fatal(err)
		}
		opt := probeSuiteOpts(designs.CPU)
		opt.Fault = plan
		opt.Retry = flow.RetryPolicy{Attempts: 2}
		_, err = RunSuite(context.Background(), opt)
		var fe *flow.Error
		if !errors.As(err, &fe) || fe.Design != "cpu" || fe.Config != string(core.Config2D12T) || fe.Stage != core.StagePlace {
			t.Fatalf("suite error %v, want one attributed to cpu/2D-12T/place", err)
		}
		var inj *fault.Injected
		if !errors.As(err, &inj) {
			t.Errorf("suite error %v does not carry the injection", err)
		}
	})
}

// TestResumeSearchNeedsItsFlow: a journaled f_max search is served only
// together with the design's 2D-12T flow, which the search produces. A
// journal holding both reruns nothing for the design; a journal holding
// only the FMAX frame (a journal killed between the two frames) reruns
// the deterministic search, journals its 2D-12T flow before a new FMAX
// frame, and resumes to the uninterrupted run's results.
func TestResumeSearchNeedsItsFlow(t *testing.T) {
	opt := probeSuiteOpts(designs.AES)
	opt.Checkpoint = filepath.Join(t.TempDir(), "full.ckpt")
	ref, err := RunSuite(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if kinds := journalKinds(t, opt.Checkpoint); !slices.Equal(kinds[:2], []string{"flow aes/2D-12T", "fmax aes"}) {
		t.Errorf("journal %v: the search's 2D-12T flow must precede its FMAX frame", kinds)
	}
	same := func(t *testing.T, s *Suite, restored map[core.ConfigName]bool) {
		t.Helper()
		if s.Fmax[designs.AES] != ref.Fmax[designs.AES] {
			t.Errorf("fmax %v, want %v", s.Fmax[designs.AES], ref.Fmax[designs.AES])
		}
		for _, cfg := range opt.Configs {
			got, want := s.Results[designs.AES][cfg], ref.Results[designs.AES][cfg]
			if got == nil || *got.PPAC != *want.PPAC {
				t.Errorf("%s: resumed record differs from the uninterrupted run's", cfg)
			} else if got.Restored != restored[cfg] {
				t.Errorf("%s: Restored = %v, want %v", cfg, got.Restored, restored[cfg])
			}
		}
		if got, want := s.TableVI().String(), ref.TableVI().String(); got != want {
			t.Errorf("Table VI diverged after resume:\n%s", renderDiff(want, got))
		}
		if got, want := s.TableVII().String(), ref.TableVII().String(); got != want {
			t.Errorf("Table VII diverged after resume:\n%s", renderDiff(want, got))
		}
	}

	t.Run("both", func(t *testing.T) {
		log := &eventLog{}
		o := opt
		o.Events = log
		s, err := RunSuite(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if n, _, _ := log.count("start "); n != 0 {
			t.Errorf("%d StageStart events; a journal with both frames runs no flow", n)
		}
		same(t, s, map[core.ConfigName]bool{core.Config2D12T: true, core.ConfigHetero: true})
	})

	t.Run("fmax-only", func(t *testing.T) {
		o := opt
		o.Checkpoint = filepath.Join(t.TempDir(), "killed.ckpt")
		ck, err := OpenCheckpoint(o.Checkpoint, o)
		if err != nil {
			t.Fatal(err)
		}
		cells := ref.Results[designs.AES][core.Config2D12T].PPAC.Cells
		if err := ck.PutFmax(designs.AES, cells, ref.Fmax[designs.AES]); err != nil {
			t.Fatal(err)
		}
		if err := ck.PutFlow(ref.Results[designs.AES][core.ConfigHetero]); err != nil {
			t.Fatal(err)
		}
		ck.Close()

		log := &eventLog{}
		o.Events = log
		s, err := RunSuite(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if n, _, _ := log.count("start aes/2D-12T/"); n == 0 {
			t.Error("the search did not rerun")
		}
		if n, _, _ := log.count("start aes/" + string(core.ConfigHetero)); n != 0 {
			t.Errorf("%d Hetero-M3D stages ran; its journaled flow must be served", n)
		}
		same(t, s, map[core.ConfigName]bool{core.Config2D12T: false, core.ConfigHetero: true})
		want := []string{"fmax aes", "flow aes/Hetero-M3D", "flow aes/2D-12T", "fmax aes"}
		if kinds := journalKinds(t, o.Checkpoint); !slices.Equal(kinds, want) {
			t.Errorf("journal after resume %v, want %v", kinds, want)
		}
	})
}

// journalKinds lists the journal's records at path in file order, as
// "fmax d" or "flow d/c".
func journalKinds(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := parseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range recs {
		if r.fmax != nil {
			out = append(out, "fmax "+r.fmax.Design)
		} else {
			out = append(out, fmt.Sprintf("flow %s/%s", r.flow.Design, r.flow.Config))
		}
	}
	return out
}
