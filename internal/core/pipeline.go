package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/check"
	"repro/internal/cts"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/tech"
)

// Stage names of the flow pipelines, in execution order. Every flow is a
// subset of these; the per-stage metrics and events use these names.
const (
	// StageMap clones the source netlist onto the flow's base library.
	StageMap = "map"
	// StageSynth is the pre-placement sizing pass at the target clock.
	StageSynth = "synth"
	// StageMacros balances hard macros across the two dies (3-D only).
	StageMacros = "macro-tiers"
	// StagePlace floorplans and globally places the design, with
	// congestion-driven utilization retries (the route-feasibility
	// check).
	StagePlace = "place"
	// StageTimingPartition pins the most timing-critical cell area to
	// the fast die (Hetero-Pin-3D, Sec. III-A1).
	StageTimingPartition = "timing-partition"
	// StagePartition is the bin-based FM min-cut tier partitioning.
	StagePartition = "partition"
	// StageRetarget remaps the top die onto the low-power library.
	StageRetarget = "retarget"
	// StageShifters inserts per-crossing level shifters (ablation only).
	StageShifters = "level-shifters"
	// StageLegalize snaps cells onto their tier's row grid.
	StageLegalize = "legalize"
	// StageCTS builds the clock tree.
	StageCTS = "cts"
	// StageRepair is the post-placement timing-driven sizing loop
	// (STA + repair rounds).
	StageRepair = "timing-repair"
	// StageECO is the repartitioning ECO loop (Algorithm 1).
	StageECO = "eco"
	// StageFinalRepair is the full post-ECO repair pass (hetero only).
	StageFinalRepair = "final-repair"
	// StagePower downsizes comfortably-passing cells to recover power.
	StagePower = "power-recovery"
	// StageSignoff runs final power analysis and assembles the PPAC
	// record.
	StageSignoff = "signoff"
)

// flowState is the mutable state a flow pipeline threads through its
// stages. The stage functions below are shared by the 2-D, M3D, and
// Hetero-Pin-3D pipelines; each flow file composes the list it needs.
// It is also the pipeline's flow.Boundary (fault injection, integrity
// checks, degradation, design saves) and the fault plan's Target.
type flowState struct {
	cfg ConfigName
	opt Options
	src *netlist.Design

	// tiers and areaScale parameterize the floorplan (1 tier for 2-D;
	// the hetero flow carries its retarget shrink in areaScale).
	tiers     int
	areaScale float64

	libs      [2]*cell.Library
	d         *netlist.Design
	fp        *place.Floorplan
	ct        *cts.Result
	router    *route.Router
	cache     *route.Cache
	env       *timingEnv
	st        *sta.Result
	pw        *power.Breakdown
	ppac      *PPAC
	preassign map[*netlist.Instance]tech.Tier
	tres      *partition.TierResult

	notes      string
	notesExtra string

	// checks is the design-integrity session spanning the flow's
	// instrumented stage boundaries (nil when Options.Check is off).
	checks *check.Session
	// audit verifies the extraction cache before every analysis; it is
	// armed exactly while a fault plan is.
	audit bool
	// forceFullSTA pins the timing engine to full recomputes. Absorb sets
	// it when the flow degrades (flow.DegradeFullSTA), and a flow resumed
	// from a degraded save restores it, so the resumed run's engine work
	// matches the uninterrupted run's.
	forceFullSTA bool
	// cancel aborts the run's context (the fault plan's cancel class).
	cancel context.CancelFunc
	// saveSet names the boundaries Commit writes the design database at
	// (nil = no saves); savePath is the -save-design path.
	saveSet  map[string]bool
	savePath string
}

// execute runs the composed pipeline and assembles the Result.
func (s *flowState) execute(fc *flow.Context, stages []flow.Stage) (*Result, error) {
	if s.opt.Check != CheckOff && s.opt.Check != "" && s.checks == nil {
		// A flow resumed from a design database arrives with the saved
		// session (ENG-003 monotonicity baseline) already restored.
		s.checks = &check.Session{}
	}
	s.audit = s.opt.Fault != nil
	if err := flow.Run(fc, s, stages); err != nil {
		return nil, err
	}
	res := &Result{
		PPAC:     s.ppac,
		Design:   s.d,
		Libs:     s.libs,
		Clock:    s.ct,
		Router:   s.router,
		Timing:   s.st,
		Power:    s.pw,
		Stages:   fc.Metrics(),
		Degraded: fc.Degradations(),
	}
	if s.fp != nil {
		// StopAfter can end the flow before placement; there is no outline
		// to report then.
		res.Outline = s.fp.Outline
	}
	if s.checks != nil {
		res.Checks = s.checks.Reports()
	}
	return res, nil
}

// Before fires the fault plan's injection due at this stage, if any.
func (s *flowState) Before(fc *flow.Context, stage string) error {
	return s.opt.Fault.Fire(fc, stage, s)
}

// Cells reports the design's current cell count for the stage metric.
func (s *flowState) Cells() int {
	if s.d == nil {
		return 0
	}
	return len(s.d.Instances)
}

// CancelRun aborts the run's context, as an external caller would.
func (s *flowState) CancelRun() { s.cancel() }

// Absorb is the flow's graceful-degradation policy: failures that mean
// "a retained engine view can no longer be trusted" — the extraction
// audit's divergence finding or an ENG-class design-integrity failure —
// are absorbed by rebuilding every retained view from ground truth and
// pinning the timing engine to full recomputes, after which the runner
// re-runs the stage. Anything else (DRC/ERC findings, engine errors,
// panics) is a genuine flow failure and propagates with attribution.
func (s *flowState) Absorb(fc *flow.Context, stage string, err error) bool {
	var rf *check.RuleFailure
	switch {
	case errors.Is(err, sta.ErrDiverged):
	case errors.As(err, &rf) && rf.OnlyClass("ENG"):
	default:
		return false
	}
	if s.d != nil {
		// Repair the journal first: the revision counters move strictly
		// past every previously handed-out value, so engine views keyed
		// on old revisions all read as stale.
		s.d.Reconcile()
	}
	if s.cache != nil {
		s.cache.Invalidate()
	}
	if s.env != nil {
		s.env.timer = nil // next analyze rebuilds the timer from scratch
		s.env.forceFull = true
	}
	s.forceFullSTA = true
	fc.AddStat(flow.StatDegradeFullSTA, 1)
	fc.MarkDegraded(flow.DegradeFullSTA)
	return true
}

// Corrupt applies a named corruption to a flow-owned engine structure —
// the fault harness's ClassCorrupt targets. Only structures that exist
// at the injection point can be corrupted; arming a cache corruption
// before the timing environment is bound reports an error (which the
// harness surfaces as an attributed stage failure).
func (s *flowState) Corrupt(target string) error {
	switch target {
	case fault.TargetCache:
		if s.cache == nil {
			return fmt.Errorf("core: extraction cache not built yet (arm the fault at a repair or later stage)")
		}
		s.settleTiming()
		s.cache.Poison(s.opt.Seed)
		return nil
	case fault.TargetJournal:
		if s.d == nil {
			return fmt.Errorf("core: no design yet (arm the fault after the map stage)")
		}
		// Rewind all the way: a partial rewind can land above the last
		// checked boundary's high-water mark and go undetected.
		s.settleTiming()
		s.d.CorruptTopoRev(^uint64(0))
		return nil
	default:
		return fmt.Errorf("core: unknown corruption target %q", target)
	}
}

// settleTiming pays the required times the flow's timing result still
// owes, so the result stands on its own. Corrupt calls it before a
// corruption lands: the corruption models damage after the last stage
// finished, so those required times must come from the state it
// finished in, exactly as the next stage's first read would have found
// them. Sign-off calls it when it retires the timing session: the
// result outlives the flow, and while it owes required times it keeps
// the whole Timer and its RC store reachable.
func (s *flowState) settleTiming() {
	if s.st != nil {
		s.st.Settle()
	}
}

// stageMap copies the source with every standard cell remapped onto the
// base (bottom) library — "the netlists are synthesized in the
// respective technology nodes" (Sec. IV-A2); macros pass through
// unchanged — and prepares it for implementation.
func (s *flowState) stageMap(fc *flow.Context) error {
	lib := s.libs[0]
	d, err := s.src.CloneMapped(func(m *cell.Master) (*cell.Master, error) {
		if m.Function.IsMacro() {
			return m, nil
		}
		return lib.Equivalent(m)
	})
	if err != nil {
		return err
	}
	s.d = d
	return synth.Prepare(s.d, s.libs[0], synth.DefaultOptions())
}

// stageSynth runs the pre-placement sizing pass at the target clock.
func (s *flowState) stageSynth(fc *flow.Context) error {
	return preSizeForClock(fc, s.d, s.libs, 1/s.opt.ClockGHz, 3, s.forceFullSTA, s.opt.FlowWorkers)
}

// stageMacros balances hard macros across the dies.
func (s *flowState) stageMacros(fc *flow.Context) error {
	s.preassign = assignMacroTiers(s.d)
	return nil
}

// stagePlace floorplans and globally places with congestion retries, then
// creates the flow's router (shared by every later timing analysis).
func (s *flowState) stagePlace(fc *flow.Context) error {
	fp, err := placeWithCongestionRetry(fc, s.d, s.opt, s.tiers, s.areaScale)
	if err != nil {
		return err
	}
	s.fp = fp
	s.router = route.New()
	return nil
}

// stagePartition runs the bin-based FM tier partitioner with the
// homogeneous-M3D balance targets.
func (s *flowState) stagePartition(fc *flow.Context) error {
	topt := partition.DefaultTierOptions()
	topt.FM.Seed = s.opt.Seed
	tres, err := partition.TierPartition(s.d, s.fp.Core, s.preassign, topt)
	if err != nil {
		return err
	}
	s.tres = tres
	return nil
}

// stageLegalize snaps every cell onto its tier's row grid.
func (s *flowState) stageLegalize(fc *flow.Context) error {
	_, err := place.LegalizeTiers(s.d, s.fp.Core, rowHeights(s.libs), s.tiers)
	return err
}

// stageCTS builds the clock tree in the given mode.
func (s *flowState) stageCTS(mode cts.Mode) func(*flow.Context) error {
	return func(fc *flow.Context) error {
		copt := cts.DefaultOptions(mode, s.libs)
		copt.Workers = s.opt.FlowWorkers
		copt.Par = &par.Stats{}
		ct, err := cts.Build(s.d, copt)
		if err != nil {
			return err
		}
		fc.AddStat(flow.StatParBatches, copt.Par.Batches)
		fc.AddStat(flow.StatParTasks, copt.Par.Tasks)
		s.ct = ct
		return nil
	}
}

// bindTimingEnv assembles the timing environment used by the repair and
// recovery stages (requires the router and clock tree): one persistent
// timing session over the flow's one RC store (s.cache), serving every
// analysis from here to sign-off, whose power analysis reads the same
// store.
func (s *flowState) bindTimingEnv(fc *flow.Context) {
	if s.cache == nil {
		s.cache = route.NewCache(s.router, s.d)
	}
	s.env = &timingEnv{
		fc:        fc,
		d:         s.d,
		libs:      s.libs,
		ex:        s.cache,
		period:    1 / s.opt.ClockGHz,
		latency:   s.ct.LatencyFunc(),
		forceFull: s.forceFullSTA,
		audit:     s.audit,
		workers:   s.opt.FlowWorkers,
	}
}

// stageRepair is the standard post-CTS timing repair loop.
func (s *flowState) stageRepair(fc *flow.Context) error {
	s.bindTimingEnv(fc)
	st, err := repairTiming(s.env, s.fp, s.opt.RepairRounds)
	if err != nil {
		return err
	}
	s.st = st
	return nil
}

// stagePower trades surplus slack for power.
func (s *flowState) stagePower(fc *flow.Context) error {
	st, err := recoverPower(s.env, s.fp, s.st)
	if err != nil {
		return err
	}
	s.st = st
	return nil
}

// stageSignoff runs final power analysis and assembles the PPAC record,
// then retires the flow's timing session.
func (s *flowState) stageSignoff(fc *flow.Context) error {
	cut := 0
	if s.tres != nil {
		cut = s.tres.Cut
	}
	if s.audit && s.cache != nil {
		// The wirelength and MIV sums read the store's slots, so a
		// corrupted store must not reach them (or power) unnoticed.
		if err := s.cache.Audit(); err != nil {
			return fmt.Errorf("%w: %w", sta.ErrDiverged, err)
		}
	}
	ppac, pw, err := collect(s.d, s.cfg, s.opt, s.fp, s.st, s.router, s.cache, s.notes, cut)
	if err != nil {
		return err
	}
	s.ppac, s.pw = ppac, pw
	if s.env != nil {
		s.settleTiming()
		s.env.reportStats()
		s.env.timer = nil
	}
	return nil
}
