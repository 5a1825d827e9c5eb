package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/flow"
)

// CheckMode selects how much design-integrity checking (internal/check)
// runs at the pipeline's stage boundaries.
type CheckMode string

const (
	// CheckOff disables boundary checking (the default; zero overhead).
	CheckOff CheckMode = "off"
	// CheckFast checks only the sign-off boundary.
	CheckFast CheckMode = "fast"
	// CheckFull checks every instrumented boundary: post-map,
	// post-legalize, post-CTS, and sign-off.
	CheckFull CheckMode = "full"
)

// ParseCheckMode validates a -check flag value ("" means off).
func ParseCheckMode(s string) (CheckMode, error) {
	switch CheckMode(s) {
	case "", CheckOff:
		return CheckOff, nil
	case CheckFast:
		return CheckFast, nil
	case CheckFull:
		return CheckFull, nil
	default:
		return CheckOff, fmt.Errorf("core: unknown check mode %q (want off, fast, or full)", s)
	}
}

// boundaryClasses maps a finished stage to the rule classes its boundary
// asserts, or ok=false for uninstrumented stages. The matrix encodes
// what is honestly invariant at each point of the paper's flows:
//
//   - map:      ERC+ENG — the netlist is fully mapped and journaled, but
//     nothing is placed or partitioned yet.
//   - legalize: ERC+DRC+TDR+ENG — the only boundary where placement DRC
//     holds unconditionally (CTS inserts buffers that later repair
//     passes re-legalize only when they change something).
//   - cts:      ERC+TDR+ENG, now with clock pins required connected.
//   - signoff:  ERC+TDR+ENG plus the PPAC MIV cross-check.
func (s *flowState) boundaryClasses(stage string) (check.Class, bool) {
	if s.opt.Check == CheckFast && stage != StageSignoff {
		return 0, false
	}
	switch stage {
	case StageMap:
		return check.ClassERC | check.ClassENG, true
	case StageLegalize:
		return check.ClassAll, true
	case StageCTS, StageSignoff:
		return check.ClassERC | check.ClassTDR | check.ClassENG, true
	}
	return 0, false
}

// After runs the design-integrity check at a stage boundary (when
// checking is on): the boundary's rule classes run over the current flow
// state, the counters land in the stage's metric, and (unless
// report-only) Error-severity findings escalate to a stage failure.
func (s *flowState) After(fc *flow.Context, stage string) error {
	classes, ok := s.boundaryClasses(stage)
	if !ok || s.checks == nil || s.d == nil {
		return nil
	}
	in := check.Input{
		Design:     s.d,
		Tiers:      s.tiers,
		RowHeights: rowHeights(s.libs),
		Libs:       s.libs,
		Router:     s.router,
		ClockBuilt: s.ct != nil,
		// After the hetero retarget each die is track-pure — until the
		// 2-D-mode CTS ablation deliberately mixes clock buffers in.
		TierLibs: s.cfg == ConfigHetero && (s.ct == nil || s.opt.Enable3DCTS),
	}
	if s.fp != nil {
		in.HaveFloorplan = true
		in.Core = s.fp.Core
		in.Outline = s.fp.Outline
	}
	if stage == StageSignoff && s.tiers == 2 && s.ppac != nil {
		in.ReportedMIVs = &s.ppac.MIVs
	}
	rep := s.checks.Run(stage, in, classes)
	fc.AddStat(flow.StatCheckRules, int64(len(rep.Stats)))
	fc.AddStat(flow.StatCheckObjects, int64(rep.Checked()))
	fc.AddStat(flow.StatCheckViolations, int64(rep.Count(check.Info)))
	fc.AddStat(flow.StatCheckErrors, int64(rep.Count(check.Error)))
	if s.opt.CheckReportOnly {
		return nil
	}
	return rep.Err(check.Error)
}
