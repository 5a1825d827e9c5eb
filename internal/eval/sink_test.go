package eval

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
)

// TestLogSinkCloseStopsWrites: a stage error delivered after the suite
// cancels and the caller closes the sink must be dropped, not written to
// the dead writer. Run under -race, this also proves the sink's locking
// is sound with concurrent reporters.
func TestLogSinkCloseStopsWrites(t *testing.T) {
	var buf bytes.Buffer
	l := &LogSink{W: &buf, Stages: true}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 100; j++ {
				l.StageDone("cpu", "Hetero-M3D", "place", flow.StageMetric{}, nil)
				l.ConfigDone("cpu", core.ConfigHetero, &core.PPAC{})
			}
		}()
	}
	close(start)
	l.Close()
	wg.Wait()

	// All reporters have drained and the gate guarantees Close was a
	// barrier, so plain reads of the buffer are race-free from here on.
	n := buf.Len()
	// Post-Close events — the cancelled-suite straggler case — must be
	// no-ops.
	l.StageDone("cpu", "Hetero-M3D", "signoff", flow.StageMetric{}, nil)
	l.FmaxDone("cpu", 10, 0.5)
	if after := buf.Len(); after != n {
		t.Errorf("sink wrote %d bytes after Close", after-n)
	}
}

func TestLogSinkFormats(t *testing.T) {
	var buf bytes.Buffer
	l := &LogSink{W: &buf, Stages: true}
	l.StageDone("aes", "2D-9T", "place", flow.StageMetric{Cells: 42}, nil)
	l.FmaxDone("aes", 42, 0.5)
	l.ConfigDone("aes", core.Config2D9T, &core.PPAC{WNS: -0.1, PowerMW: 3, SiAreaMM2: 0.01, PPC: 1.5})
	out := buf.String()
	for _, want := range []string{"f_max(2D-12T) = 0.500 GHz", "42 cells", "WNS=-0.100"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestCleanSuiteResilience: with no faults armed, the resilience report
// shows every flow clean — the acceptance bar for no-fault runs.
func TestCleanSuiteResilience(t *testing.T) {
	s := testSuite(t)
	out := s.ResilienceReport().String()
	if !strings.Contains(out, "20 clean") {
		t.Errorf("resilience report should summarize 20 clean flows:\n%s", out)
	}
	if !strings.Contains(out, "0 degraded") {
		t.Errorf("resilience report should show zero degraded flows:\n%s", out)
	}
	// The stage report has one column per key the flows wrote: engine
	// counters, and no robustness counter on a clean suite.
	st := s.StageReport().String()
	for _, col := range []string{flow.StatSTAFull, flow.StatSTAIncr, flow.StatRCHits, flow.StatParTasks} {
		if !strings.Contains(st, col) {
			t.Errorf("stage report missing %q column:\n%s", col, st)
		}
	}
	for _, col := range []string{flow.StatFaultsInjected, flow.StatStageReruns, flow.StatPanicsRecovered} {
		if strings.Contains(st, col) {
			t.Errorf("clean stage report has a %q column:\n%s", col, st)
		}
	}
	for dn, cfgs := range s.Results {
		for cfg, r := range cfgs {
			if r.Attempts != 1 || len(r.Degraded) != 0 {
				t.Errorf("%s/%s: Attempts = %d, degradations %v; want 1 and none", dn, cfg, r.Attempts, r.Degraded)
			}
		}
	}
}
