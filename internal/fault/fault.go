// Package fault is the flow engine's deterministic fault-injection
// harness. A Plan arms a set of injections, each registered by (design,
// config, stage, occurrence); the pipeline's owner calls Fire before
// every stage body, and Fire delivers each injection exactly when its
// site is visited for the matching time — so a "3rd visit of
// cpu/Hetero-M3D/timing-repair" fault reproduces bit-for-bit across
// runs, worker counts, and retry attempts (occurrence counting continues
// across attempts, which is what makes an injected fault transient: the
// retry does not re-hit it unless armed again at a later occurrence).
//
// Five fault classes cover the failure taxonomy (DESIGN.md §6.5):
//
//   - panic:   the stage panics with the injection record — exercises
//     the runner's panic barrier and worker-pool isolation.
//   - error:   the stage fails with the injection record as its error.
//   - cancel:  the run's context is cancelled mid-stage — exercises the
//     Canceled polling of long-running stages.
//   - timeout: the stage fails wrapping context.DeadlineExceeded, the
//     shape of an engine-level deadline.
//   - corrupt: a flow-owned engine structure is corrupted through the
//     Target's Corrupt method ("extraction-cache", "journal") —
//     exercises divergence detection and degraded-mode recovery.
//
// Tests build Plans directly; the cmds parse them from a -fault spec
// string (ParseSpec).
package fault

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/flow"
)

// Class names an injected fault's kind.
type Class string

const (
	ClassPanic   Class = "panic"
	ClassError   Class = "error"
	ClassCancel  Class = "cancel"
	ClassTimeout Class = "timeout"
	ClassCorrupt Class = "corrupt"
)

// Classes lists every fault class, in spec order.
var Classes = []Class{ClassPanic, ClassError, ClassCancel, ClassTimeout, ClassCorrupt}

// Injection is one armed fault: where it fires (wildcards "" or "*"
// match any design/config/stage), on which visit of that site
// (Occurrence, 1-based; 0 means the first), and what happens.
type Injection struct {
	Design, Config, Stage string
	// Occurrence is the 1-based matching-visit index the fault fires on.
	Occurrence int
	Class      Class
	// Target selects the corruption target for ClassCorrupt:
	// "extraction-cache" (default) or "journal".
	Target string
	// Retryable marks the resulting error transient for the per-flow
	// retry policy.
	Retryable bool
}

// site returns the injection's site spec for error messages.
func (in Injection) site() string {
	occ := in.Occurrence
	if occ < 1 {
		occ = 1
	}
	return fmt.Sprintf("%s/%s/%s@%d", orStar(in.Design), orStar(in.Config), orStar(in.Stage), occ)
}

func orStar(s string) string {
	if s == "" {
		return "*"
	}
	return s
}

// Injected is the structured error an injection produces (directly for
// error/timeout faults, as the recovered panic value for panic faults).
// It unwraps to context.DeadlineExceeded for the timeout class so
// errors.Is sees the deadline shape, and reports Retryable per the
// injection.
type Injected struct {
	Class     Class
	Site      string // design/config/stage@occurrence that fired
	At        string // the concrete design/config/stage it fired in
	retryable bool
	wrapped   error
}

func (e *Injected) Error() string {
	return fmt.Sprintf("fault: injected %s at %s (armed %s)", e.Class, e.At, e.Site)
}

func (e *Injected) Unwrap() error { return e.wrapped }

// Retryable implements the transient-error marker flow.Retryable reads.
func (e *Injected) Retryable() bool { return e.retryable }

// armed is one injection plus its firing state.
type armed struct {
	Injection
	visits int // matching-site visits seen so far
	fired  bool
}

// Plan is a set of armed injections plus their deterministic firing
// state. One Plan may serve many flows concurrently (the eval worker
// pool shares it); the occurrence counters are guarded by a mutex and
// keyed per (design, config) pair, so parallel flows never perturb each
// other's counts.
type Plan struct {
	mu  sync.Mutex
	inj []*armed
	// visitKey tracks per-(injection, design, config) visit counts so a
	// wildcard injection counts each flow's visits independently —
	// occurrence 2 of "*/*/timing-repair" means the 2nd repair visit of
	// each flow, not a race between flows.
	visits map[visitKey]int
	fired  []Fired
}

type visitKey struct {
	inj            int
	design, config string
}

// Fired records one delivered injection for reporting and tests.
type Fired struct {
	Injection
	Design, Config, At string // the concrete site it fired in (At = stage)
}

// NewPlan arms the given injections.
func NewPlan(injections ...Injection) *Plan {
	p := &Plan{visits: make(map[visitKey]int)}
	for _, in := range injections {
		if in.Occurrence < 1 {
			in.Occurrence = 1
		}
		if in.Class == ClassCorrupt && in.Target == "" {
			in.Target = TargetCache
		}
		p.inj = append(p.inj, &armed{Injection: in})
	}
	return p
}

// Corruption targets for ClassCorrupt.
const (
	// TargetCache poisons the flow's RC-extraction cache: cached entries
	// keep their revision but carry perturbed values, the silent-wrong-
	// data failure the extraction audit exists to catch.
	TargetCache = "extraction-cache"
	// TargetJournal rewinds the design's change-journal topology
	// revision, the stale-engine-view failure ENG-003 exists to catch.
	TargetJournal = "journal"
)

// Fired returns every injection delivered so far, in delivery order.
func (p *Plan) Fired() []Fired {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Fired{}, p.fired...)
}

// Pending returns the armed injections that have not fired yet.
func (p *Plan) Pending() []Injection {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Injection
	for _, a := range p.inj {
		if !a.fired {
			out = append(out, a.Injection)
		}
	}
	return out
}

func match(pat, got string) bool {
	return pat == "" || pat == "*" || pat == got
}

// next returns the injection due at this site visit, advancing the
// occurrence counters. At most one injection fires per stage visit (the
// first armed one in registration order).
func (p *Plan) next(design, config, stage string) *armed {
	p.mu.Lock()
	defer p.mu.Unlock()
	var due *armed
	for i, a := range p.inj {
		if !match(a.Design, design) || !match(a.Config, config) || !match(a.Stage, stage) {
			continue
		}
		k := visitKey{inj: i, design: design, config: config}
		p.visits[k]++
		if !a.fired && due == nil && p.visits[k] == a.Occurrence {
			a.fired = true
			due = a
			p.fired = append(p.fired, Fired{Injection: a.Injection, Design: design, Config: config, At: stage})
		}
	}
	return due
}

// Target is what Fire needs from the flow it injects into: a way to
// abort the whole run (the cancel class) and named corruptions of
// flow-owned engine structures (the corrupt class). The core flow state
// implements it.
type Target interface {
	// CancelRun aborts the whole run, as an external caller would.
	CancelRun()
	// Corrupt applies the named corruption (TargetCache, TargetJournal);
	// an unknown or not-yet-available target returns an error.
	Corrupt(target string) error
}

// Fire delivers the injection due at this visit of stage, if any: it
// returns the injected error, panics, or cancels or corrupts through t,
// per the injection's class. A nil *Plan fires nothing, so the
// flow calls it unconditionally before every stage body. A nil t turns
// the cancel class into a canceled-shaped error and fails the corrupt
// class.
func (p *Plan) Fire(c *flow.Context, stage string, t Target) error {
	if p == nil {
		return nil
	}
	a := p.next(c.Design, c.Config, stage)
	if a == nil {
		return nil
	}
	c.AddStat(flow.StatFaultsInjected, 1)
	inj := &Injected{
		Class:     a.Class,
		Site:      a.site(),
		At:        fmt.Sprintf("%s/%s/%s", c.Design, c.Config, stage),
		retryable: a.Retryable,
	}
	switch a.Class {
	case ClassPanic:
		panic(inj)
	case ClassError:
		return inj
	case ClassCancel:
		// Model an external abort arriving mid-stage: cancel the run and
		// let the stage body's Canceled polling observe it.
		if t != nil {
			t.CancelRun()
			return nil
		}
		inj.wrapped = context.Canceled
		return inj
	case ClassTimeout:
		inj.wrapped = context.DeadlineExceeded
		return inj
	case ClassCorrupt:
		if t == nil {
			inj.wrapped = fmt.Errorf("no corruption targets registered")
			return inj
		}
		if err := t.Corrupt(a.Target); err != nil {
			inj.wrapped = err
			return inj
		}
		// The corruption itself is silent — detection is the flow
		// engine's job (extraction audit, ENG checks).
		return nil
	default:
		inj.wrapped = fmt.Errorf("unknown fault class %q", a.Class)
		return inj
	}
}
