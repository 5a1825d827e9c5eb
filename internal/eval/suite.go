// Package eval orchestrates the paper's full evaluation: it finds each
// netlist's 2D-12T f_max, implements every design in the five Fig. 1
// configurations at that iso-performance target, and renders every table
// (I–VIII) and figure (1, 3, 4) of the paper from the measured results.
// Both cmd/ppac and the repository's benchmark harness drive this
// package.
//
// RunSuite is a parallel orchestrator: the per-design f_max searches run
// concurrently, then each design's other configurations fan out as
// independent worker-pool jobs (bounded by SuiteOptions.Workers); the
// search's returned probe is the design's 2D-12T flow. Every flow is
// deterministic given its seed, so the results are identical at any
// worker count.
//
// The suite is built to survive a hostile run: worker goroutines are
// panic-shielded (one crashed flow fails the suite with attribution, it
// never takes the process down), transient failures re-attempt under
// SuiteOptions.Retry with fresh derived seeds, and SuiteOptions.Checkpoint
// journals every completed flow so an interrupted run — cancelled or
// SIGKILLed — resumes when rerun with the same options, without
// repeating finished work and with byte-identical tables.
package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/cell"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/tech"
)

// EventSink observes suite progress as structured events. It extends the
// pipeline-level flow.Sink (StageStart/StageDone from inside every flow
// run) with suite-level completions. Implementations must be safe for
// concurrent use: with Workers > 1 many flows report interleaved.
type EventSink interface {
	flow.Sink
	// FmaxDone reports a design's completed 2D-12T f_max search.
	FmaxDone(design string, cells int, fmaxGHz float64)
	// ConfigDone reports one finished implementation with its PPAC
	// record.
	ConfigDone(design string, config core.ConfigName, p *core.PPAC)
}

// SuiteOptions configures an evaluation run.
type SuiteOptions struct {
	// Scale is the design-size multiplier (1.0 = paper-comparable cell
	// counts; the benchmarks default lower for wall-clock sanity).
	Scale float64
	// Seed feeds generation and partitioning.
	Seed int64
	// Designs to evaluate (default: all four).
	Designs []designs.Name
	// Configs to implement (default: all five).
	Configs []core.ConfigName
	// FmaxIterations bounds the per-design frequency search (0 = core's).
	FmaxIterations int
	// Workers bounds the number of concurrently executing flow jobs —
	// f_max searches and per-config implementations share the pool.
	// 0 means GOMAXPROCS; 1 runs the suite fully serially. Results are
	// identical at any worker count.
	Workers int
	// FlowWorkers bounds each flow's intra-flow parallelism (the place/
	// route/STA/CTS kernels; core.Options.FlowWorkers). 0 budgets it
	// automatically so suite workers × flow workers stays within
	// GOMAXPROCS; an explicit value is honored as-is. Results are
	// identical at any value.
	FlowWorkers int
	// Events receives structured progress events (nil = silent),
	// replacing the printf-style Progress callback of earlier versions.
	// LogSink adapts the events back to log lines for CLI use.
	Events EventSink
	// Check runs the design-integrity checker at stage boundaries of
	// every flow, the f_max probes included (a probe may be the design's
	// 2D-12T result). Error-severity findings fail the owning flow and
	// therefore the suite. Empty means off.
	Check core.CheckMode
	// Retry is the per-flow retry policy: a flow failing with a
	// transient (flow.Retryable) error, f_max probes included,
	// re-attempts with a fresh derived seed and capped exponential
	// backoff. The zero value runs each flow once.
	Retry flow.RetryPolicy
	// Checkpoint is the path of the resumable journal ("" = off): every
	// completed f_max search and flow is appended as it finishes, and a
	// rerun with the same options serves completed work from the journal,
	// producing byte-identical tables.
	Checkpoint string
	// Fault is the fault-injection plan armed in every flow, f_max probes
	// included, so an injection's occurrence counts probe visits too;
	// nil = no injection.
	Fault *fault.Plan
	// ResumeFromPlace, when set to a directory, runs every flow, f_max
	// probes included, in two legs through the binary design database: a
	// truncated leg that saves the design right after placement, then a
	// second flow that loads the saved file and runs the remaining
	// stages. The suite's results must be byte-identical either way —
	// this is the determinism harness for the save/restore path, not a
	// performance feature. Excluded from the checkpoint header: it
	// changes how results are computed, never what they are.
	ResumeFromPlace string
}

// withDefaults fills the defaulted design/config lists (the checkpoint
// header and the run loop must agree on them).
func (opt SuiteOptions) withDefaults() SuiteOptions {
	if len(opt.Designs) == 0 {
		opt.Designs = append([]designs.Name{}, designs.All...)
	}
	if len(opt.Configs) == 0 {
		opt.Configs = append([]core.ConfigName{}, core.AllConfigs...)
	}
	return opt
}

// DefaultSuiteOptions returns paper-order defaults at the given scale.
func DefaultSuiteOptions(scale float64) SuiteOptions {
	return SuiteOptions{
		Scale:          scale,
		Seed:           1,
		Designs:        append([]designs.Name{}, designs.All...),
		Configs:        append([]core.ConfigName{}, core.AllConfigs...),
		FmaxIterations: core.DefaultFmaxOptions().Iterations,
	}
}

// Suite holds a completed evaluation.
type Suite struct {
	Opt SuiteOptions
	// Fmax is each design's 2D-12T maximum frequency (GHz), the
	// iso-performance target for every configuration.
	Fmax map[designs.Name]float64
	// Results[design][config] is the record of that finished flow.
	Results map[designs.Name]map[core.ConfigName]*FlowRecord
}

// FlowRecord is the one form in which a suite holds a finished flow,
// whether it ran in this process or was served from the checkpoint
// journal, which persists every field above Attempts.
type FlowRecord struct {
	Design   designs.Name
	Config   core.ConfigName
	PPAC     *core.PPAC
	Stages   []flow.StageMetric
	Degraded []string
	Checks   []*check.Report
	// Dive is the Table VIII deep dive, computed while the live flow
	// state existed.
	Dive *core.DeepDive

	// Attempts counts the runs the retry policy made (0 when Restored).
	Attempts int
	// Restored marks a record served from the journal.
	Restored bool
	// Layout is what the figures draw; only the figure flows
	// (figureConfigs) computed in this run keep one.
	Layout *Layout
}

// newFlowRecord builds the record of a finished flow, computing its deep
// dive while the live state exists.
func newFlowRecord(design designs.Name, cfg core.ConfigName, r *core.Result) (*FlowRecord, error) {
	dive, err := core.DeepAnalyze(r)
	if err != nil {
		return nil, fmt.Errorf("deep dive %s/%s: %w", design, cfg, err)
	}
	return &FlowRecord{Design: design, Config: cfg, PPAC: r.PPAC, Stages: r.Stages,
		Degraded: r.Degraded, Checks: r.Checks, Dive: dive, Attempts: r.Attempts,
		Layout: layoutOf(design, cfg, r)}, nil
}

// badNames appends to bad a note for each repeated or unknown name.
func badNames[T ~string](bad []string, kind string, names, known []T) []string {
	for i, n := range names {
		if slices.Contains(names[:i], n) {
			bad = append(bad, fmt.Sprintf("repeated %s %q", kind, n))
		} else if !slices.Contains(known, n) {
			bad = append(bad, fmt.Sprintf("unknown %s %q", kind, n))
		}
	}
	return bad
}

// runFlow implements design name in cfg at clockGHz under the suite's
// options and returns the finished flow's record. The f_max probes and
// the configuration jobs both build their flows with it.
func runFlow(ctx context.Context, opt SuiteOptions, flowWorkers int, src *netlist.Design,
	name designs.Name, cfg core.ConfigName, clockGHz float64) (*FlowRecord, error) {
	o := core.DefaultOptions(clockGHz)
	o.Seed = opt.Seed
	o.Events = opt.Events
	o.Check = opt.Check
	o.Fault = opt.Fault
	o.FlowWorkers = flowWorkers
	// Each attempt runs at its own derived seed, so under ResumeFromPlace
	// each attempt saves its own placement (leg 1) before resuming from
	// it (leg 2): a database saved under another attempt's seed does not
	// load.
	var r *core.Result
	trace, err := opt.Retry.Do(ctx, o.Seed, func(_ int, seed int64) error {
		a := o
		a.Seed = seed
		if opt.ResumeFromPlace != "" {
			dbPath := filepath.Join(opt.ResumeFromPlace, fmt.Sprintf("%s-%s.db", name, cfg))
			save := a
			save.SaveDesign = dbPath
			save.SaveAfter = core.StagePlace
			save.StopAfter = core.StagePlace
			if _, err := core.Run(ctx, src, cfg, save); err != nil {
				return fmt.Errorf("eval: save leg %s/%s: %w", name, cfg, err)
			}
			a.LoadDesign = dbPath
		}
		var err error
		r, err = core.Run(ctx, src, cfg, a)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.Attempts = trace.Attempts
	return newFlowRecord(name, cfg, r)
}

// RunSuite executes the evaluation under ctx. Cancelling ctx (or hitting
// its deadline) aborts every in-flight flow promptly; the returned error
// is then the first failure, a stage-attributed *flow.Error for flows
// cancelled mid-run, or the bare context error if nothing had started.
func RunSuite(ctx context.Context, opt SuiteOptions) (*Suite, error) {
	if opt.Scale <= 0 {
		return nil, fmt.Errorf("eval: scale must be positive")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	// Refuse bad names before any flow runs or any journal byte is written.
	bad := badNames(nil, "design", opt.Designs, designs.All)
	if bad = badNames(bad, "config", opt.Configs, core.AllConfigs); len(bad) > 0 {
		return nil, fmt.Errorf("eval: %s", strings.Join(bad, "; "))
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Nested-parallelism budget: suite workers × flow workers stays
	// within the machine unless the caller explicitly oversubscribes.
	flowWorkers := opt.FlowWorkers
	if flowWorkers <= 0 {
		flowWorkers = par.Budget(runtime.GOMAXPROCS(0), workers)
	}
	if opt.ResumeFromPlace != "" {
		if err := os.MkdirAll(opt.ResumeFromPlace, 0o755); err != nil {
			return nil, fmt.Errorf("eval: resume-from-place: %w", err)
		}
	}

	var ck *Checkpoint
	if opt.Checkpoint != "" {
		var err error
		ck, err = OpenCheckpoint(opt.Checkpoint, opt)
		if err != nil {
			return nil, err
		}
		defer ck.Close()
	}

	lib12 := cell.NewLibrary(tech.Variant12T())
	s := &Suite{
		Opt:     opt,
		Fmax:    make(map[designs.Name]float64),
		Results: make(map[designs.Name]map[core.ConfigName]*FlowRecord),
	}
	for _, name := range opt.Designs {
		s.Results[name] = make(map[core.ConfigName]*FlowRecord, len(opt.Configs))
	}

	// The pool: a limiter bounds concurrently executing jobs; the first
	// failure cancels every other job via jctx. Each job runs behind
	// flow.Shield, so a panic outside the pipeline (generation, result
	// bookkeeping) fails the suite with attribution, never the process.
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	slots := par.NewLimiter(workers)
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	for _, name := range opt.Designs {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The journal serves a search only together with the 2D-12T
			// flow it returns. Generation is needed unless every piece
			// of this design's work is journaled.
			fmax, cells, haveFmax := ck.Fmax(name)
			needSrc := !haveFmax
			for _, cfg := range opt.Configs {
				if _, ok := ck.Flow(name, cfg); !ok {
					needSrc = true
					haveFmax = haveFmax && cfg != core.Config2D12T
				}
			}
			var (
				src   *netlist.Design
				rec12 *FlowRecord // the search's returned probe
			)
			if needSrc {
				// Generation and the f_max search occupy one worker
				// slot; the search itself is sequential (each probe's
				// effective delay steers the next).
				if slots.Acquire(jctx) != nil {
					return
				}
				err := flow.Shield(string(name), "", "worker", func() error {
					d, err := designs.Generate(name, lib12, designs.Params{Scale: opt.Scale, Seed: opt.Seed})
					if err != nil {
						return fmt.Errorf("eval: generate %s: %w", name, err)
					}
					src = d
					if haveFmax {
						return nil
					}
					fopt := core.DefaultFmaxOptions()
					if opt.FmaxIterations > 0 {
						fopt.Iterations = opt.FmaxIterations
					}
					fmax, rec12, err = core.FindFmax(jctx, fopt, func(ctx context.Context, f float64) (*FlowRecord, *core.PPAC, error) {
						rec, err := runFlow(ctx, opt, flowWorkers, d, name, core.Config2D12T, f)
						if err != nil {
							return nil, nil, err
						}
						return rec, rec.PPAC, nil
					})
					if err != nil {
						return fmt.Errorf("eval: fmax %s: %w", name, err)
					}
					cells = d.ComputeStats().Cells
					if !slices.Contains(opt.Configs, core.Config2D12T) {
						rec12 = nil
					} else if err := ck.PutFlow(rec12); err != nil {
						return err
					}
					return ck.PutFmax(name, cells, fmax)
				})
				slots.Release()
				if err != nil {
					fail(err)
					return
				}
			}
			mu.Lock()
			s.Fmax[name] = fmax
			mu.Unlock()
			if opt.Events != nil {
				opt.Events.FmaxDone(string(name), cells, fmax)
			}

			// finish installs a finished flow's record and reports it.
			finish := func(rec *FlowRecord) {
				mu.Lock()
				s.Results[name][rec.Config] = rec
				mu.Unlock()
				if opt.Events != nil {
					opt.Events.ConfigDone(string(name), rec.Config, rec.PPAC)
				}
			}
			// The design's other configurations fan out as independent
			// jobs.
			for _, cfg := range opt.Configs {
				if cfg == core.Config2D12T && rec12 != nil {
					finish(rec12)
					continue
				}
				cfg := cfg
				wg.Add(1)
				go func() {
					defer wg.Done()
					if rec, ok := ck.Flow(name, cfg); ok {
						finish(rec)
						return
					}
					if slots.Acquire(jctx) != nil {
						return
					}
					defer slots.Release()
					var rec *FlowRecord
					err := flow.Shield(string(name), string(cfg), "worker", func() (err error) {
						rec, err = runFlow(jctx, opt, flowWorkers, src, name, cfg, fmax)
						return err
					})
					if err != nil {
						fail(fmt.Errorf("eval: %w", err))
						return
					}
					if err := ck.PutFlow(rec); err != nil {
						fail(err)
						return
					}
					finish(rec)
				}()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// DesignsInOrder returns the evaluated designs in the paper's column
// order (netcard, aes, ldpc, cpu), restricted to those actually run.
func (s *Suite) DesignsInOrder() []designs.Name {
	var out []designs.Name
	for _, n := range designs.All {
		if _, ok := s.Results[n]; ok {
			out = append(out, n)
		}
	}
	return out
}
