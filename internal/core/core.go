// Package core is the paper's contribution: the Hetero-Pin-3D flow engine
// that implements a netlist in any of the five Fig. 1 configurations —
// 2-D and monolithic-3-D in the 9-track or 12-track library, and the
// heterogeneous 9+12-track 3-D — and reports full PPAC (power,
// performance, area, cost).
//
// The heterogeneous flow composes the substrates exactly as the paper's
// Sec. III describes: a single-technology pseudo-3-D stage, cell-based
// timing criticality feeding the timing-based partitioner, bin-based FM
// on the remainder, the 12.5 % footprint shrink from retargeting the top
// tier to 9-track cells, a 3-D clock tree built with the COVER-cell
// approach, boundary-cell power derates, and the repartitioning
// ECO loop (Algorithm 1) to timing closure.
package core

import (
	"context"
	"fmt"

	"repro/internal/cell"
	"repro/internal/check"
	"repro/internal/cost"
	"repro/internal/cts"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/tech"
)

// ConfigName identifies one of the five implementations of Fig. 1.
type ConfigName string

const (
	Config2D9T   ConfigName = "2D-9T"
	Config2D12T  ConfigName = "2D-12T"
	ConfigM3D9T  ConfigName = "M3D-9T"
	ConfigM3D12T ConfigName = "M3D-12T"
	ConfigHetero ConfigName = "Hetero-M3D"
)

// AllConfigs lists the five configurations in the paper's comparison
// order.
var AllConfigs = []ConfigName{Config2D9T, Config2D12T, ConfigM3D9T, ConfigM3D12T, ConfigHetero}

// Tiers returns 1 for 2-D configs, 2 for 3-D.
func (c ConfigName) Tiers() int {
	switch c {
	case Config2D9T, Config2D12T:
		return 1
	default:
		return 2
	}
}

// Options tunes a flow run.
type Options struct {
	// ClockGHz is the target frequency. The evaluation uses each
	// netlist's 2D-12T f_max (found with FindFmax) for every config.
	ClockGHz float64
	// TargetUtil is the floorplan utilization (paper setup: 0.70).
	TargetUtil float64
	// TimingAreaFrac caps the timing-based pre-assignment at this
	// fraction of total cell area (paper: 20–30 %).
	TimingAreaFrac float64
	// RepairRounds bounds the timing-driven sizing loop.
	RepairRounds int
	// Ablation switches for the Table V study (all true = the paper's
	// full Hetero-Pin-3D; all false = plain Pin-3D driving a hetero
	// design).
	EnableTimingPartition bool
	Enable3DCTS           bool
	EnableRepartition     bool
	// Cost is the die-cost model.
	Cost cost.Model
	// Seed feeds the partitioner.
	Seed int64
	// TopVariant overrides the heterogeneous flow's top-die library
	// (default 9-track). The track-mix exploration sweeps this.
	TopVariant *tech.Variant
	// ForceLevelShifters inserts a voltage level shifter on every
	// tier-crossing net of the heterogeneous design — the style the paper
	// rejects in Sec. III-B; the ablation benchmark measures why.
	ForceLevelShifters bool
	// Events receives structured stage events from the pipeline (nil =
	// none). Must be safe for concurrent use when flows run in parallel.
	Events flow.Sink
	// Check enables design-integrity checking at stage boundaries
	// (default CheckOff). Error-severity findings fail the stage unless
	// CheckReportOnly is set, in which case the flow proceeds and every
	// boundary report lands in Result.Checks (cmd/designlint's mode).
	Check           CheckMode
	CheckReportOnly bool
	// Fault is the fault-injection plan fired before every stage body
	// (nil = no injection). Arming one also arms the extraction audit,
	// which verifies the timer's RC store against fresh extraction
	// before every timing analysis (O(nets) each), so injected store
	// corruption is caught at the next analysis.
	Fault *fault.Plan
	// FlowWorkers bounds the intra-flow parallelism of the place, route,
	// STA, and CTS kernels (bisection frontier, per-net extraction
	// fan-out, per-level timing sweeps, clock-tree partitioning). Every
	// kernel is byte-identical at any value, so this trades wall time
	// only. <= 1 runs the kernels serially; the evaluation suite budgets
	// it against its own flow-level parallelism.
	FlowWorkers int
	// SaveDesign writes a binary design database (internal/db) at the
	// stage boundaries named by SaveAfter. A flow later resumed from the
	// file (LoadDesign) finishes byte-identical to this run.
	SaveDesign string
	// SaveAfter names the boundaries to save at, comma-separated
	// (default "place" when SaveDesign is set). Supported boundaries:
	// map, place, legalize, cts, signoff. With more than one boundary
	// the stage name is inserted into the file name before its
	// extension (design.db → design-place.db).
	SaveAfter string
	// LoadDesign resumes the flow from a design database written by
	// SaveDesign: the saved stages are skipped, their state is restored,
	// and the remaining stages run byte-identical to an uninterrupted
	// run. The file must come from the same design, configuration, and
	// flow options (scheduling options like FlowWorkers excepted).
	LoadDesign string
	// StopAfter truncates the flow after the named stage. Used with
	// SaveDesign to produce a snapshot without paying for the full flow;
	// the Result then carries only the state the executed stages built
	// (PPAC is nil before signoff).
	StopAfter string
}

// DefaultOptions returns the evaluation defaults at the given target
// frequency.
func DefaultOptions(clockGHz float64) Options {
	return Options{
		ClockGHz:              clockGHz,
		TargetUtil:            0.70,
		TimingAreaFrac:        0.30,
		RepairRounds:          3,
		EnableTimingPartition: true,
		Enable3DCTS:           true,
		EnableRepartition:     true,
		Cost:                  cost.Default(),
		Seed:                  1,
	}
}

// PPAC is the full result record of one implementation — the rows of
// Tables VI and VII.
type PPAC struct {
	Design string
	Config ConfigName

	FreqGHz float64
	// FootprintMM2 is the die outline area in mm²; SiAreaMM2 multiplies
	// by tier count.
	FootprintMM2 float64
	SiAreaMM2    float64
	// ChipWidthUM is the die width in µm.
	ChipWidthUM float64
	// Density is the average standard-cell utilization (0–1).
	Density float64
	// WLm is total routed wirelength (signal + clock) in meters.
	WLm float64
	// MIVs is the inter-tier via count (0 for 2-D).
	MIVs int
	// PowerMW is total power in mW.
	PowerMW float64
	// LeakageMW, ClockPowerMW break the total down.
	LeakageMW, ClockPowerMW float64
	WNS, TNS                float64
	// EffDelayNS = period − WNS.
	EffDelayNS float64
	// PDPpJ = power × effective delay.
	PDPpJ float64
	// DieCostMicroC is die cost in 10⁻⁶ C'.
	DieCostMicroC float64
	// CostPerCm2 is die cost per cm² of silicon, in 10⁻⁶ C'.
	CostPerCm2 float64
	// PPC = GHz / (W × 10⁻⁶C').
	PPC float64

	Cells      int
	CutSize    int
	Refinement string // free-form flow notes (ECO iterations etc.)
}

// TimingMet reports the paper's closure criterion: |WNS| within ≈7 % of
// the clock period (Sec. IV-A2).
func (p *PPAC) TimingMet() bool {
	period := 1 / p.FreqGHz
	return p.WNS >= -0.07*period
}

// Result bundles the PPAC summary with the implemented design for
// downstream inspection (Table VIII deep dives, figure rendering).
type Result struct {
	PPAC   *PPAC
	Design *netlist.Design
	// Libs are the per-tier libraries ([bottom, top]; top nil for 2-D).
	Libs [2]*cell.Library
	// Clock is the synthesized tree.
	Clock  *cts.Result
	Router *route.Router
	// Timing is the final sign-off analysis and Power its companion
	// breakdown; the Table VIII deep dives read these.
	Timing *sta.Result
	Power  *power.Breakdown
	// Outline is the die rectangle (shared by both tiers in 3-D).
	Outline geom.Rect
	// Stages records every executed pipeline stage's wall time and cell
	// count, in execution order (the -stage-report tables read these).
	Stages []flow.StageMetric
	// Checks holds the design-integrity reports of every checked stage
	// boundary, in run order (nil when Options.Check is off).
	Checks []*check.Report
	// Degraded lists the degraded-mode reasons the flow recorded
	// (flow.Context.MarkDegraded), in first-occurrence order; nil when
	// the flow ran clean.
	Degraded []string
	// Attempts counts the runs RunWithRetry made to produce this result
	// (1 = clean first try; 0 when the result did not come from
	// RunWithRetry).
	Attempts int
}

// libFor returns the library pair of a configuration.
func libFor(cfg ConfigName) ([2]*cell.Library, error) {
	l9 := cell.NewLibrary(tech.Variant9T())
	l12 := cell.NewLibrary(tech.Variant12T())
	switch cfg {
	case Config2D9T:
		return [2]*cell.Library{l9, nil}, nil
	case Config2D12T:
		return [2]*cell.Library{l12, nil}, nil
	case ConfigM3D9T:
		return [2]*cell.Library{l9, l9}, nil
	case ConfigM3D12T:
		return [2]*cell.Library{l12, l12}, nil
	case ConfigHetero:
		// Fast 12-track bottom, low-power 9-track top (Sec. IV-A1).
		return [2]*cell.Library{l12, l9}, nil
	default:
		return [2]*cell.Library{}, fmt.Errorf("core: unknown config %q", cfg)
	}
}

// Run implements the design in the named configuration as a cancellable
// stage pipeline. src must be a 12-track-mapped netlist (the generators'
// output); each flow clones and re-maps it as its technology requires,
// leaving src untouched.
//
// ctx cancels or deadlines the run: the pipeline checks it before every
// stage and the repair loops poll it between rounds, so a cancelled run
// returns a *flow.Error (wrapping context.Canceled or DeadlineExceeded)
// that attributes the abort to the exact design, config, and stage. A nil
// ctx means no cancellation.
func Run(ctx context.Context, src *netlist.Design, cfg ConfigName, opt Options) (*Result, error) {
	if opt.ClockGHz <= 0 {
		return nil, fmt.Errorf("core: clock %v GHz must be positive", opt.ClockGHz)
	}
	if opt.TargetUtil <= 0 || opt.TargetUtil > 1 {
		return nil, fmt.Errorf("core: utilization %v out of (0,1]", opt.TargetUtil)
	}
	if _, err := ParseCheckMode(string(opt.Check)); err != nil {
		return nil, err
	}
	// The run's context is always cancellable from inside: the fault
	// harness's cancel class and any future watchdog abort through
	// flowState.CancelRun exactly like an external caller would.
	runCtx, cancel := context.WithCancel(orBackground(ctx))
	defer cancel()
	fc := flow.NewContext(runCtx, src.Name, string(cfg), opt.Seed)
	fc.Sink = opt.Events
	s, stages, err := flowPlan(src, cfg, opt)
	if err != nil {
		return nil, err
	}
	s.cancel = cancel
	return s.runFlow(fc, stages)
}

// flowPlan builds the flow state and stage list for a configuration
// without executing anything — the single dispatch point the runner,
// the save/load machinery, and StopAfter all share.
func flowPlan(src *netlist.Design, cfg ConfigName, opt Options) (*flowState, []flow.Stage, error) {
	switch cfg {
	case Config2D9T, Config2D12T:
		return plan2D(src, cfg, opt)
	case ConfigM3D9T, ConfigM3D12T:
		return planM3D(src, cfg, opt)
	case ConfigHetero:
		return planHetero(src, opt)
	default:
		return nil, nil, fmt.Errorf("core: unknown config %q", cfg)
	}
}

func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// RunWithRetry runs the flow under the given retry policy: a failure
// whose error chain is marked transient (flow.Retryable) re-attempts the
// whole flow with a fresh derived seed and capped exponential backoff.
// The returned trace records every attempt; the error (if any) is the
// last attempt's, with full design/config/stage attribution.
func RunWithRetry(ctx context.Context, src *netlist.Design, cfg ConfigName, opt Options, policy flow.RetryPolicy) (*Result, *flow.RetryTrace, error) {
	var res *Result
	trace, err := policy.Do(ctx, opt.Seed, func(attempt int, seed int64) error {
		o := opt
		o.Seed = seed
		var rerr error
		res, rerr = Run(ctx, src, cfg, o)
		return rerr
	})
	if err != nil {
		return nil, trace, err
	}
	res.Attempts = trace.Attempts
	return res, trace, nil
}
