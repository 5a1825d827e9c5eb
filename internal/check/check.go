// Package check is the design-integrity checker: the re-implemented
// stack's stand-in for the commercial sign-off sanity checks the paper's
// flow leans on (Innovus/Tempus ERC, placement DRC, timing-graph
// verification). A multi-driven net, an off-row cell, or a stale MIV
// count would silently corrupt Tables I–VIII; the rule catalog here makes
// every intermediate flow state machine-checkable instead.
//
// Rules are grouped in four classes with stable, documented IDs
// (DESIGN.md §6.4):
//
//   - ERC  — netlist electrical rules: dangling/multi-driven/undriven
//     nets, floating inputs, unknown masters, binding integrity,
//     combinational loops.
//   - DRC  — placement rules: cell overlaps, off-row placement,
//     out-of-core bounds, utilization sanity.
//   - TDR  — 3-D rules: tier-assignment consistency, MIV accounting
//     against cut nets, tier/library compatibility for hetero configs.
//   - ENG  — engine-coherence rules: change-journal coverage, timing
//     graph acyclicity/levelization, revision monotonicity across stage
//     boundaries.
//
// The flow engine runs the checker at stage boundaries (-check=fast|full)
// through a Session; cmd/designlint runs it standalone.
package check

import (
	"fmt"
	"strings"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
)

// Severity ranks a rule's findings.
type Severity uint8

const (
	// Info marks advisory findings that are legal in some flow states
	// (e.g. floating inputs before synthesis cleanup).
	Info Severity = iota
	// Warning marks suspicious-but-survivable states.
	Warning
	// Error marks states that corrupt downstream results; flows escalate
	// these to a stage failure.
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", uint8(s))
	}
}

// Class is a bitmask selecting which rule groups run.
type Class uint8

const (
	ClassERC Class = 1 << iota
	ClassDRC
	ClassTDR
	ClassENG

	// ClassAll runs every rule group.
	ClassAll = ClassERC | ClassDRC | ClassTDR | ClassENG
)

// String implements fmt.Stringer.
func (c Class) String() string {
	var parts []string
	for _, g := range []struct {
		c Class
		s string
	}{{ClassERC, "ERC"}, {ClassDRC, "DRC"}, {ClassTDR, "TDR"}, {ClassENG, "ENG"}} {
		if c&g.c != 0 {
			parts = append(parts, g.s)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Violation is one rule finding on one design object.
type Violation struct {
	// Rule is the stable rule ID, e.g. "ERC-002".
	Rule string
	// Severity is the owning rule's severity.
	Severity Severity
	// Obj names the violating object (instance, net, tier, or "design").
	Obj string
	// Msg describes the finding.
	Msg string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s [%s] %s: %s", v.Rule, v.Severity, v.Obj, v.Msg)
}

// RuleStat is the per-rule outcome of one checker run.
type RuleStat struct {
	ID       string
	Title    string
	Severity Severity
	// Checked counts the objects the rule examined (0 when the rule was
	// inapplicable to the input and skipped).
	Checked int
	// Violations counts every finding, including those beyond the
	// report's per-rule cap.
	Violations int
}

// Report is the outcome of one checker run over one design state.
type Report struct {
	// Design and Stage label the run (Stage is "" for standalone runs).
	Design string
	Stage  string
	// Stats holds one entry per rule that was selected, in catalog order.
	Stats []RuleStat
	// Violations lists the findings, capped at MaxPerRule per rule in
	// catalog order; Stats carries the uncapped counts.
	Violations []Violation
}

// MaxPerRule caps how many violations of one rule a report retains; the
// per-rule stats keep the full counts.
const MaxPerRule = 20

// Count returns the number of findings at or above min severity
// (uncapped, from the per-rule stats).
func (r *Report) Count(min Severity) int {
	n := 0
	for _, s := range r.Stats {
		if s.Severity >= min {
			n += s.Violations
		}
	}
	return n
}

// Checked sums the objects examined across all selected rules.
func (r *Report) Checked() int {
	n := 0
	for _, s := range r.Stats {
		n += s.Checked
	}
	return n
}

// RuleFailure is the structured error a failing check report produces:
// it keeps the rule IDs behind the findings so callers can react to the
// class of failure — the flow's degradation path treats ENG-class
// failures (stale engine views) as recoverable by rebuilding the
// retained engines, where a DRC failure is a genuine flow bug.
type RuleFailure struct {
	// Total counts the findings at or above the triggering severity.
	Total int
	// Rules lists the distinct violated rule IDs in report order.
	Rules []string
	msg   string
}

func (e *RuleFailure) Error() string { return e.msg }

// Classes returns the distinct rule-ID prefixes ("ERC", "DRC", "TDR",
// "ENG") behind the failure, in first-occurrence order.
func (e *RuleFailure) Classes() []string {
	var out []string
	for _, id := range e.Rules {
		cls, _, _ := strings.Cut(id, "-")
		dup := false
		for _, c := range out {
			if c == cls {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, cls)
		}
	}
	return out
}

// OnlyClass reports whether every violated rule belongs to the given
// class prefix.
func (e *RuleFailure) OnlyClass(cls string) bool {
	c := e.Classes()
	return len(c) == 1 && c[0] == cls
}

// Err converts the report into an error listing the first few findings at
// or above min severity; nil when the report is clean at that level. The
// returned error is a *RuleFailure carrying the violated rule IDs.
func (r *Report) Err(min Severity) error {
	total := r.Count(min)
	if total == 0 {
		return nil
	}
	var lines []string
	for _, v := range r.Violations {
		if v.Severity < min {
			continue
		}
		lines = append(lines, v.String())
		if len(lines) == 5 {
			break
		}
	}
	msg := strings.Join(lines, "; ")
	if total > len(lines) {
		msg += fmt.Sprintf("; ... (%d total)", total)
	}
	fail := &RuleFailure{Total: total, msg: fmt.Sprintf("check: %d violation(s): %s", total, msg)}
	for _, s := range r.Stats {
		if s.Severity >= min && s.Violations > 0 {
			fail.Rules = append(fail.Rules, s.ID)
		}
	}
	return fail
}

// Input is everything the checker can examine. Design is required; the
// rest is optional context — rules whose context is missing record zero
// objects checked instead of guessing.
type Input struct {
	Design *netlist.Design
	// Tiers is 1 for a 2-D implementation, 2 for 3-D; 0 when unknown
	// (tier rules skip).
	Tiers int
	// HaveFloorplan gates the placement DRC rules; Core is the
	// standard-cell region and Outline the die.
	HaveFloorplan bool
	Core, Outline geom.Rect
	// RowHeights are the per-tier legalization row heights (µm).
	RowHeights [2]float64
	// Libs are the per-tier libraries ([bottom, top]; top nil for 2-D).
	Libs [2]*cell.Library
	// TierLibs asserts that every cell's master belongs to its tier's
	// library (true after the hetero retarget with the 3-D CTS enabled;
	// false for flows that intentionally mix, like the 2-D-CTS ablation).
	TierLibs bool
	// ClockBuilt marks post-CTS states: sequential clock pins must be
	// connected from here on.
	ClockBuilt bool
	// Router is the MIV model the accounting rule mirrors (nil = the
	// default route.New model).
	Router *route.Router
	// ReportedMIVs, when non-nil, is the signoff PPAC MIV count the
	// accounting rule cross-checks against the design's current state.
	ReportedMIVs *int

	// session is set by Session.Run; the monotonicity rule reads the
	// previous boundary's revision snapshot through it.
	session *Session
}

// Rule describes one catalog entry.
type Rule struct {
	ID       string
	Title    string
	Severity Severity
	Class    Class
	// Doc explains what the rule guards in paper terms.
	Doc string

	run func(*checker)
}

// Rules returns the catalog in ID order (for documentation and
// cmd/designlint -rules).
func Rules() []Rule {
	out := make([]Rule, len(catalog))
	copy(out, catalog)
	return out
}

// checker is one run's working state.
type checker struct {
	in  Input
	rep *Report
	cur *RuleStat
	// binds holds the design's netlist.Bindings findings, walked once per
	// run for ERC-002, ERC-003 and ERC-007.
	binds []netlist.BindFault
}

// failBindings records the design's binding findings of one kind.
func (c *checker) failBindings(k netlist.BindKind) {
	for _, f := range c.binds {
		if f.Kind == k {
			c.fail(f.Obj, "%s", f.Msg)
		}
	}
}

// checked counts objects the current rule examined.
func (c *checker) checked(n int) { c.cur.Checked += n }

// fail records one violation of the current rule.
func (c *checker) fail(obj, format string, args ...interface{}) {
	c.cur.Violations++
	if c.cur.Violations > MaxPerRule {
		return
	}
	c.rep.Violations = append(c.rep.Violations, Violation{
		Rule:     c.cur.ID,
		Severity: c.cur.Severity,
		Obj:      obj,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Run executes the selected rule classes over the input and returns the
// report. It never mutates the design.
func Run(in Input, classes Class) *Report {
	rep := &Report{}
	if in.Design != nil {
		rep.Design = in.Design.Name
	}
	c := &checker{in: in, rep: rep}
	if in.Design != nil && classes&ClassERC != 0 {
		c.binds = in.Design.Bindings()
	}
	for _, r := range catalog {
		if r.Class&classes == 0 {
			continue
		}
		rep.Stats = append(rep.Stats, RuleStat{ID: r.ID, Title: r.Title, Severity: r.Severity})
		c.cur = &rep.Stats[len(rep.Stats)-1]
		if in.Design == nil {
			continue
		}
		r.run(c)
	}
	return rep
}
