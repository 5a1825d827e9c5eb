// Package flow is the stage-pipeline substrate the core flow engine
// executes on. A flow (2-D, M3D, Hetero-Pin-3D) is expressed as an
// ordered list of named Stages run over a shared Context that carries
// cancellation (context.Context), the run's seeded RNG, per-stage
// wall-time/cell-count metrics, and an optional structured event sink.
//
// The pipeline runner checks for cancellation before every stage and
// attributes any failure — including cancellation — to the exact design,
// configuration, and stage it occurred in via the structured Error type,
// so a parallel evaluation can report "cpu/Hetero-M3D failed in the eco
// stage" instead of an anonymous error.
//
// The runner is also the flow engine's fault boundary: a panicking stage
// is recovered into a stage-attributed *Error wrapping a *PanicError
// (value + stack), and the pipeline's owner does its stage-boundary
// work — fault injection, integrity checks, degraded re-runs, design
// saves — through one Boundary it hands to Run.
package flow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"
)

// Stage is one named step of a flow pipeline. Run mutates the flow's
// state (closed over by the function) and returns an error to abort the
// pipeline.
type Stage struct {
	Name string
	Run  func(*Context) error
}

// StageMetric records one executed stage: its wall time, the design's
// cell count when the stage finished (0 when unknown), and any engine
// counters the stage reported through AddStat (nil when none).
type StageMetric struct {
	Name  string
	Wall  time.Duration
	Cells int
	Stats map[string]int64
}

// Totals sums every stat key across the given runs' stage metrics: one
// flow's engine counters, or a suite's when several runs are passed. A
// key any metric wrote is present in the result.
func Totals(runs ...[]StageMetric) map[string]int64 {
	tot := make(map[string]int64)
	for _, ms := range runs {
		for _, m := range ms {
			for k, v := range m.Stats {
				tot[k] += v
			}
		}
	}
	return tot
}

// SortedKeys returns the keys of a stat map in ascending order.
func SortedKeys(stats map[string]int64) []string {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sink receives structured pipeline events. Implementations must be safe
// for concurrent use: when flows run in parallel (eval's worker pool) a
// single sink observes every run's stages interleaved.
type Sink interface {
	// StageStart fires immediately before a stage runs.
	StageStart(design, config, stage string)
	// StageDone fires after a stage returns, with its metric and error
	// (nil on success).
	StageDone(design, config, stage string, m StageMetric, err error)
}

// Context is the shared state a pipeline threads through its stages.
type Context struct {
	// Ctx carries the run's cancellation and deadline; the pipeline
	// runner checks it before every stage, and long-running stages poll
	// it via Canceled between optimization rounds.
	Ctx context.Context
	// RNG is the run's seeded random source. Stages draw any randomness
	// they need from it so a run is reproducible from its seed alone.
	RNG *rand.Rand
	// Design and Config label the run in events and errors.
	Design, Config string
	// Sink receives stage events (nil = none).
	Sink Sink

	metrics  []StageMetric
	stats    map[string]int64
	degraded []string
}

// Boundary is the stage-boundary work a pipeline's owner performs. Run
// calls it around every stage, in this order:
//
//   - Before, the stage body and After run behind one panic barrier; an
//     error or recovered panic from any of them fails the execution.
//   - Absorb is consulted when an execution fails with a non-cancellation
//     error; true re-runs Before, body and After (at most maxStageReruns
//     times per stage).
//   - Cells is read once the stage's metric is finalized.
//   - Commit runs after the metric is appended, so Metrics() includes the
//     current stage; an error or panic fails the stage and is never
//     absorbed.
//
// Stats that Before, After or Commit report through AddStat land in the
// stage's StageMetric. A nil Boundary means no boundary work.
type Boundary interface {
	// Before runs before every stage body (fault injection).
	Before(c *Context, stage string) error
	// After runs after every successful stage body (integrity checks).
	After(c *Context, stage string) error
	// Absorb reports whether the owner absorbed err (e.g. by degrading
	// the timing engine to full recomputes) so the stage should re-run.
	Absorb(c *Context, stage string, err error) bool
	// Cells reports the design's current cell count for the metric.
	Cells() int
	// Commit persists the finished stage (design-database saves).
	Commit(c *Context, stage string) error
}

// noBoundary is the Boundary of a pipeline whose owner does no boundary
// work.
type noBoundary struct{}

func (noBoundary) Before(*Context, string) error       { return nil }
func (noBoundary) After(*Context, string) error        { return nil }
func (noBoundary) Absorb(*Context, string, error) bool { return false }
func (noBoundary) Cells() int                          { return 0 }
func (noBoundary) Commit(*Context, string) error       { return nil }

// maxStageReruns bounds how many times Boundary.Absorb may re-run one
// stage execution before its error escapes — a backstop against a
// degradation that cannot actually clear the fault.
const maxStageReruns = 2

// AddStat accumulates an engine counter into the currently running
// stage's metric (the runner attaches the totals to the StageMetric when
// the stage finishes). Safe on a nil context — engines report stats
// unconditionally and standalone analyses have nowhere to put them.
func (c *Context) AddStat(key string, v int64) {
	if c == nil || v == 0 {
		return
	}
	if c.stats == nil {
		c.stats = make(map[string]int64)
	}
	c.stats[key] += v
}

// Degraded-mode reason keys recorded via MarkDegraded.
const (
	// DegradeFullSTA: a retained engine view diverged from ground truth
	// and the flow finished on full-STA recomputes.
	DegradeFullSTA = "full-sta"
	// DegradeUtil: the congestion retry budget ran out and the floorplan
	// was relaxed one extra step past the standard policy.
	DegradeUtil = "utilization"
)

// MarkDegraded records that the flow completed in a degraded mode (the
// reason strings are stable keys like "full-sta" or "utilization"). Safe
// on a nil context. Duplicate reasons collapse to one entry.
func (c *Context) MarkDegraded(reason string) {
	if c == nil {
		return
	}
	for _, r := range c.degraded {
		if r == reason {
			return
		}
	}
	c.degraded = append(c.degraded, reason)
}

// Degradations returns the degraded-mode reasons recorded so far, in
// first-occurrence order (nil when the flow ran clean).
func (c *Context) Degradations() []string {
	if c == nil {
		return nil
	}
	return c.degraded
}

// NewContext builds a pipeline context for one design/config run with an
// RNG seeded from seed. A nil ctx means no cancellation.
func NewContext(ctx context.Context, design, config string, seed int64) *Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Context{
		Ctx:    ctx,
		RNG:    rand.New(rand.NewSource(seed)),
		Design: design,
		Config: config,
	}
}

// Canceled returns the underlying context's error (context.Canceled or
// context.DeadlineExceeded) once the run is cancelled, nil otherwise.
// Long stages call it between optimization rounds to abort promptly.
func (c *Context) Canceled() error {
	if c == nil || c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// Metrics returns the per-stage records of every stage executed so far,
// in execution order.
func (c *Context) Metrics() []StageMetric { return c.metrics }

// Error is a structured flow failure: which design, configuration, and
// stage failed, and why. It wraps the underlying cause, so
// errors.Is(err, context.Canceled) and friends see through it.
type Error struct {
	Design string
	Config string
	Stage  string
	Err    error
}

func (e *Error) Error() string {
	return fmt.Sprintf("flow %s/%s: stage %s: %v", e.Design, e.Config, e.Stage, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// PanicError is a recovered stage panic: the panic value plus the stack
// captured at the recovery point. When the panic value is itself an
// error (the fault harness panics with its injection record), Unwrap
// exposes it so errors.Is/As and Retryable see through the recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Unwrap returns the panic value when it is an error, nil otherwise.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// retryableError marks an error as transient for the per-flow retry
// policy.
type retryableError struct{ err error }

func (e *retryableError) Error() string   { return e.err.Error() }
func (e *retryableError) Unwrap() error   { return e.err }
func (e *retryableError) Retryable() bool { return true }

// MarkRetryable wraps err so Retryable reports true for it (nil stays
// nil). Fault classes the injection spec marks ":retryable" and
// transient engine conditions use it.
func MarkRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// Retryable reports whether any error in err's chain declares itself
// transient via a `Retryable() bool` method. Cancellation is never
// retryable: a cancelled run must stay cancelled.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	for err != nil {
		if r, ok := err.(interface{ Retryable() bool }); ok && r.Retryable() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// guard runs fn behind the panic barrier — the package's one recover():
// a panic surfaces as a *PanicError instead of unwinding the caller's
// goroutine, so one crashed flow can never take down a sibling worker.
// A *PanicError panicking through a nested barrier is passed through so
// the original stack survives. Every recovered panic is counted under
// StatPanicsRecovered in c's running stage (a nil c counts nowhere).
func (c *Context) guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Value: r, Stack: debug.Stack()}
			}
			c.AddStat(StatPanicsRecovered, 1)
			err = pe
		}
	}()
	return fn()
}

// execStage runs one stage execution — Before, the stage body, After —
// behind the panic barrier.
func (c *Context) execStage(b Boundary, st Stage) error {
	return c.guard(func() error {
		if err := b.Before(c, st.Name); err != nil {
			return err
		}
		if err := st.Run(c); err != nil {
			return err
		}
		return b.After(c, st.Name)
	})
}

// SeedMetrics pre-loads stage metrics recorded before this pipeline ran
// — the resume path: a flow restored from a design database seeds the
// saved stages' metrics so Metrics reports the complete run, saved and
// resumed stages alike, in execution order.
func (c *Context) SeedMetrics(ms []StageMetric) {
	c.metrics = append(c.metrics, ms...)
}

// Run executes the stages in order over the context, doing b's boundary
// work around each (nil b = none). Before each stage it checks for
// cancellation; a cancelled context or a failing stage aborts the
// pipeline with a *Error attributing the design, config, and stage. Each
// executed stage's wall time and cell count are appended to the
// context's metrics, and the sink (if any) observes every start/finish.
//
// A panicking stage is recovered into a *PanicError and attributed like
// any other failure. A failing stage whose error b absorbs is re-run;
// the re-run's stats accumulate into the same StageMetric together with
// a StatStageReruns count.
func Run(c *Context, b Boundary, stages []Stage) error {
	if b == nil {
		b = noBoundary{}
	}
	for _, st := range stages {
		if err := c.Canceled(); err != nil {
			return &Error{Design: c.Design, Config: c.Config, Stage: st.Name, Err: err}
		}
		if c.Sink != nil {
			c.Sink.StageStart(c.Design, c.Config, st.Name)
		}
		start := time.Now()
		c.stats = nil
		err := c.execStage(b, st)
		for rerun := 0; err != nil && rerun < maxStageReruns; rerun++ {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				break // degradation never absorbs an abort
			}
			if !b.Absorb(c, st.Name, err) {
				break
			}
			c.AddStat(StatStageReruns, 1)
			err = c.execStage(b, st)
		}
		c.metrics = append(c.metrics, StageMetric{Name: st.Name, Wall: time.Since(start), Cells: b.Cells(), Stats: c.stats})
		if err == nil {
			// Commit sees the finalized metric list (the design database
			// records every executed stage, this one included).
			err = c.guard(func() error { return b.Commit(c, st.Name) })
		}
		m := &c.metrics[len(c.metrics)-1]
		m.Stats = c.stats // picks up a panic Commit's barrier recovered
		c.stats = nil
		if c.Sink != nil {
			c.Sink.StageDone(c.Design, c.Config, st.Name, *m, err)
		}
		if err != nil {
			if fe, ok := err.(*Error); ok {
				// A nested pipeline already attributed the failure.
				return fe
			}
			return &Error{Design: c.Design, Config: c.Config, Stage: st.Name, Err: err}
		}
	}
	return nil
}
