package core

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/cts"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/tech"
)

// planHetero is the paper's contribution: the Hetero-Pin-3D flow, composed
// as the pipeline map → synth → macro-tiers → place → timing-partition →
// partition → retarget → level-shifters → legalize → cts → timing-repair
// → eco → final-repair → power-recovery → signoff.
//
//  1. Pseudo-3-D stage in the single 12-track technology.
//  2. Cell-based timing criticality → timing-based partitioning pins the
//     most critical 20–30 % of cell area to the fast bottom die.
//  3. Bin-based FM min-cut partitions the remainder.
//  4. Top tier retargets to the 9-track library; the footprint carries
//     the 12.5 % shrink.
//  5. Per-tier legalization (different row heights per die, Fig. 3c).
//  6. 3-D clock tree via the COVER-cell approach (top-die biased).
//  7. Timing repair with per-tier libraries and boundary-cell derates.
//  8. Repartitioning ECO (Algorithm 1) to timing closure.
//
// The conditional stages (timing-partition, level-shifters, eco) stay in
// the pipeline when their ablation switch disables them and no-op, so
// every hetero run reports the same stage list.
func planHetero(src *netlist.Design, opt Options) (*flowState, []flow.Stage, error) {
	libs, err := libFor(ConfigHetero)
	if err != nil {
		return nil, nil, err
	}
	if opt.TopVariant != nil {
		libs[1] = cell.NewLibrary(*opt.TopVariant)
	}
	lib12, lib9 := libs[0], libs[1]
	// The footprint shrink follows the top library's cell height: half
	// the cells keep their 12-track size, half scale by AreaScale.
	shrink := 0.5 + 0.5*lib9.Variant.AreaScale

	s := &flowState{cfg: ConfigHetero, opt: opt, src: src, libs: libs, tiers: 2, areaScale: shrink}

	ctsMode := cts.ModeHetero3D
	if !opt.Enable3DCTS {
		// Ablation (Table V): without the 3-D clock stage the tree is
		// built as if single-die; top-tier sinks pay cross-tier wiring.
		ctsMode = cts.Mode2D
	}

	return s, []flow.Stage{
		// --- Pseudo-3-D stage: single technology (12-track).
		{Name: StageMap, Run: s.stageMap},
		{Name: StageSynth, Run: s.stageSynth},
		{Name: StageMacros, Run: s.stageMacros},
		{Name: StagePlace, Run: s.stagePlace},

		// --- Timing-based partitioning (Sec. III-A1): rank cells by the
		// worst slack of any path through them on the pseudo-3-D design
		// and pin the most critical area fraction to the fast die.
		{Name: StageTimingPartition, Run: func(fc *flow.Context) error {
			if !opt.EnableTimingPartition {
				return nil
			}
			// One-shot pseudo-3-D analysis before any Timer exists; the
			// slack map seeds the partitioner and is never reused.
			st0, err := sta.Analyze(s.d, STAConfig(1/opt.ClockGHz, s.router, nil, opt.FlowWorkers)) //staleanalyze:ignore pre-Timer seed analysis

			if err != nil {
				return err
			}
			slack := st0.SlackMap()
			crit := partition.PreassignCritical(s.d.Instances,
				func(i *netlist.Instance) float64 { return slack[i.ID] },
				opt.TimingAreaFrac, tech.TierBottom)
			for inst, t := range crit {
				s.preassign[inst] = t
			}
			return nil
		}},

		// --- Bin-based FM on the remainder. The bottom die is targeted
		// slightly light (47 % of pre-shrink area): after the top tier
		// shrinks to 9-track cells the dies utilize comparably, and the
		// repartitioning ECO keeps working headroom on the fast die.
		{Name: StagePartition, Run: func(fc *flow.Context) error {
			topt := partition.DefaultTierOptions()
			topt.FM.Seed = opt.Seed
			topt.FM.TargetFrac = 0.47
			topt.FM.Tolerance = 0.03
			// The fast die runs tight by design (the floorplan already
			// banked the top die's 9-track shrink), and the bin-local
			// refinement lets the bottom share drift above the nominal
			// window when the timing-pinned cells cluster spatially. Cap
			// the drift at the bottom die's physical row capacity so
			// legalization stays feasible with a fragmentation margin.
			capFrac := bottomCapacityFrac(s.d, s.fp, lib12)
			topt.MaxFrac0 = capFrac
			// The level-shifter ablation later adds a shifter on the
			// driver's tier of every crossing net, so the bottom die must
			// also host the shifters its own drivers need: while they do
			// not fit, lower the cap by their area and partition again.
			for try := 0; ; try++ {
				tres, err := partition.TierPartition(s.d, s.fp.Core, s.preassign, topt)
				if err != nil {
					return err
				}
				s.tres = tres
				if !opt.ForceLevelShifters || try == maxShifterRetries {
					return nil
				}
				movable, bottom := movableArea(s.d)
				shifters := shifterArea(s.d, tech.TierBottom, lib12)
				if bottom+shifters <= capFrac*movable {
					return nil
				}
				topt.MaxFrac0 = capFrac - shifters/movable
			}
		}},

		// --- Retarget the top die to the low-power 9-track library.
		{Name: StageRetarget, Run: func(fc *flow.Context) error {
			_, err := synth.Retarget(s.d, lib9, func(i *netlist.Instance) bool {
				return i.Tier == tech.TierTop
			})
			return err
		}},

		// --- Level-shifter ablation (Sec. III-B): the paper's rejected
		// alternative inserts a shifter on every tier-crossing net.
		{Name: StageShifters, Run: func(fc *flow.Context) error {
			if !opt.ForceLevelShifters {
				return nil
			}
			n, err := synth.InsertLevelShifters(s.d, func(t tech.Tier) *cell.Library {
				if t == tech.TierTop {
					return lib9
				}
				return lib12
			})
			if err != nil {
				return err
			}
			s.notesExtra = fmt.Sprintf(", %d level shifters", n)
			return nil
		}},

		{Name: StageLegalize, Run: s.stageLegalize},

		// --- 3-D clock tree: COVER-cell methodology, heterogeneous mode.
		{Name: StageCTS, Run: s.stageCTS(ctsMode)},

		// Sign-off timing uses the per-tier libraries and the extracted
		// (tier-true) pin loads directly, so the boundary-cell behaviour
		// of Tables II/III is modeled natively; a single-technology
		// tool's boundary inaccuracy cancels along paths, the paper
		// argues, and stays unmodeled in its flow. Power analysis keeps
		// the heterogeneous derates: the sub-VDD-gate leakage blow-up is
		// a physical effect, not a modeling artifact (Sec. II-B).
		//
		// A light first repair pass only, on a tight area budget:
		// filling the fast die with upsized cells before the ECO would
		// consume the repartitioner's headroom.
		{Name: StageRepair, Run: func(fc *flow.Context) error {
			s.bindTimingEnv(fc)
			st, err := repairTimingBudget(s.env, s.fp, 1, 0.82)
			if err != nil {
				return err
			}
			s.st = st
			return nil
		}},

		// --- Repartitioning ECO (Algorithm 1).
		{Name: StageECO, Run: func(fc *flow.Context) error {
			s.notes = fmt.Sprintf("hetero flow, cut=%d, preassigned=%d%s",
				s.tres.Cut, s.tres.Preassigned, s.notesExtra)
			if !opt.EnableRepartition {
				return nil
			}
			// Refresh sign-off timing before the oracle reads it: analyze
			// audits the extraction cache, so a corrupted cache is caught
			// here — before any repartitioning move taints the design —
			// and the degraded re-run replays the stage from the same
			// untainted state as a clean run.
			st0, err := s.env.analyze()
			if err != nil {
				return err
			}
			s.st = st0
			oracle := &staOracle{env: s.env, res: s.st}
			eopt := partition.DefaultECOOptions()
			eopt.FastTier = tech.TierBottom
			// Wide-and-shallow designs fail across thousands of
			// endpoints; examine enough paths per iteration to reach
			// them.
			eopt.NP = 400
			// Bound the moves by the fast die's placeable area so the
			// bottom tier stays legalizable.
			eopt.FastCapacity = s.fp.Core.Area() * 0.90
			eopt.OnMove = func(inst *netlist.Instance, to tech.Tier) error {
				lib := lib9
				if to == tech.TierBottom {
					lib = lib12
				}
				eq, err := lib.Equivalent(inst.Master)
				if err != nil {
					return err
				}
				return s.d.ReplaceMaster(inst, eq)
			}
			rep, err := partition.RepartitionECO(s.d, oracle, eopt)
			if err != nil {
				return err
			}
			// Moves change cell sizes and tiers: re-legalize and re-time.
			if _, err := place.LegalizeTiers(s.d, s.fp.Core, rowHeights(libs), 2); err != nil {
				return err
			}
			// Keep s.st valid on failure: a multi-assign here would nil it
			// out, and a degraded re-run of this stage reads it.
			st, err := s.env.analyze()
			if err != nil {
				return err
			}
			s.st = st
			s.notes += fmt.Sprintf(", eco: %d moved, %d undone in %d iters", rep.Moved, rep.Undone, rep.Iterations)
			return nil
		}},

		// Full post-ECO timing repair, then power recovery.
		{Name: StageFinalRepair, Run: func(fc *flow.Context) error {
			st, err := repairTiming(s.env, s.fp, opt.RepairRounds)
			if err != nil {
				return err
			}
			s.st = st
			return nil
		}},
		{Name: StagePower, Run: s.stagePower},
		{Name: StageSignoff, Run: s.stageSignoff},
	}, nil
}

// staOracle adapts the STA engine to the repartitioning loop's
// TimingOracle interface.
type staOracle struct {
	env *timingEnv
	res *sta.Result
}

func (o *staOracle) CriticalPaths(n int) [][]partition.PathCell {
	paths := o.res.CriticalPaths(n)
	out := make([][]partition.PathCell, len(paths))
	for i, p := range paths {
		cells := make([]partition.PathCell, len(p.Stages))
		for j, s := range p.Stages {
			cells[j] = partition.PathCell{Inst: s.Inst, Delay: s.CellDelay + s.WireDelay}
		}
		out[i] = cells
	}
	return out
}

func (o *staOracle) WNSTNS() (float64, float64) { return o.res.WNS, o.res.TNS }

func (o *staOracle) Refresh() error {
	res, err := o.env.analyze()
	if err != nil {
		return err
	}
	o.res = res
	return nil
}
