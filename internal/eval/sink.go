package eval

import (
	"fmt"
	"io"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/report"
)

// LogSink is an EventSink that renders the suite's structured events as
// human-readable progress lines on W — the CLI replacement for the old
// printf-style Progress callback. The zero value with only W set prints
// one line per f_max search and per finished configuration; Stages
// additionally prints one line per pipeline stage. Safe for concurrent
// use.
type LogSink struct {
	W io.Writer
	// Stages turns on per-stage lines (verbose).
	Stages bool

	gate flow.Gate
}

// Close detaches the sink from its writer: subsequent events are dropped
// instead of written. Call it once the suite returns and before tearing
// down W — a cancelled suite's worker goroutines can still be unwinding
// and report their final (failed) stage events after RunSuite has
// returned, and those must not land on a writer whose lifetime ended.
// The drop-after-close semantics live in flow.Gate, shared with the
// serve wire adapter.
func (l *LogSink) Close() error {
	l.gate.Close()
	return nil
}

func (l *LogSink) printf(format string, args ...interface{}) {
	l.gate.Do(func() {
		fmt.Fprintf(l.W, format+"\n", args...)
	})
}

// StageStart implements flow.Sink (silent; starts are implied by dones).
func (l *LogSink) StageStart(design, config, stage string) {}

// StageDone implements flow.Sink.
func (l *LogSink) StageDone(design, config, stage string, m flow.StageMetric, err error) {
	if !l.Stages {
		return
	}
	status := ""
	if err != nil {
		status = fmt.Sprintf("  ERROR: %v", err)
	}
	l.printf("[%s] %-10s %-16s %8.1fms  %6d cells%s",
		design, config, stage, float64(m.Wall.Microseconds())/1000, m.Cells, status)
}

// FmaxDone implements EventSink.
func (l *LogSink) FmaxDone(design string, cells int, fmaxGHz float64) {
	l.printf("[%s] %d cells; f_max(2D-12T) = %.3f GHz", design, cells, fmaxGHz)
}

// ConfigDone implements EventSink.
func (l *LogSink) ConfigDone(design string, config core.ConfigName, p *core.PPAC) {
	l.printf("[%s] %-10s WNS=%+.3f P=%.1fmW Si=%.4fmm² PPC=%.3f",
		design, config, p.WNS, p.PowerMW, p.SiAreaMM2, p.PPC)
}

// StageReport renders the -stage-report table over every flow in the
// suite: one row per pipeline stage with its run count, wall time and
// share, and the engine counters the stages reported, summed across
// flows.
func (s *Suite) StageReport() *report.Table {
	var runs [][]flow.StageMetric
	for _, dn := range s.DesignsInOrder() {
		for _, cfg := range s.Opt.withDefaults().Configs {
			if r, ok := s.Results[dn][cfg]; ok {
				runs = append(runs, r.Stages)
			}
		}
	}
	return report.StageTable("Per-stage wall time and engine counters across the suite's flows", runs...)
}

// CheckReport collects every flow's stage-boundary check reports into the
// -check table, with each boundary labeled design/config/stage. Empty
// (only a totals line) when the suite ran with checks off.
func (s *Suite) CheckReport() *report.Table {
	var reps []*check.Report
	for _, dn := range s.DesignsInOrder() {
		for _, cfg := range s.Opt.withDefaults().Configs {
			r, ok := s.Results[dn][cfg]
			if !ok {
				continue
			}
			for _, rep := range r.Checks {
				labeled := *rep
				labeled.Stage = fmt.Sprintf("%s/%s/%s", dn, cfg, rep.Stage)
				reps = append(reps, &labeled)
			}
		}
	}
	return report.CheckTable("Design-integrity checks by stage boundary", reps)
}
