package core

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/cost"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/tech"
)

// assignMacroTiers balances hard macros across the two dies by area
// (largest first onto the lighter die) and returns the assignment as a
// preassign map for the tier partitioner.
func assignMacroTiers(d *netlist.Design) map[*netlist.Instance]tech.Tier {
	var macros []*netlist.Instance
	for _, inst := range d.Instances {
		if inst.Master.Function.IsMacro() {
			macros = append(macros, inst)
		}
	}
	sort.Slice(macros, func(i, j int) bool {
		ai, aj := macros[i].Master.Area(), macros[j].Master.Area()
		if ai != aj {
			return ai > aj
		}
		return macros[i].Name < macros[j].Name
	})
	var area [2]float64
	out := make(map[*netlist.Instance]tech.Tier, len(macros))
	for _, m := range macros {
		t := tech.TierBottom
		if area[1] < area[0] {
			t = tech.TierTop
		}
		m.SetTier(t)
		area[t] += m.Master.Area()
		out[m] = t
	}
	return out
}

// rowHeights returns the per-tier legalization row heights of a library
// pair.
func rowHeights(libs [2]*cell.Library) [2]float64 {
	var h [2]float64
	h[0] = libs[0].Variant.CellHeight
	if libs[1] != nil {
		h[1] = libs[1].Variant.CellHeight
	}
	return h
}

// placeWithCongestionRetry floorplans and globally places the design,
// then checks routing congestion; a heavily overflowing design (the
// paper's wire-dominant LDPC) is re-floorplanned at reduced utilization
// and re-placed — "the routing feasibility drives the optimization"
// (Sec. IV-B2), which is why LDPC's density lands near 64 % while the
// cell-dominant designs stay at their 70 %+ targets.
//
// Every retry is counted under StatCongestionRetries. A design still
// overflowing after the standard three attempts gets one extra
// relaxation under the flow's Degraded flag (StatDegradeUtil) — a worse
// floorplan beats an aborted flow, but the result is marked so the
// resilience report surfaces it.
func placeWithCongestionRetry(fc *flow.Context, d *netlist.Design, opt Options, tiers int, areaScale float64) (*place.Floorplan, error) {
	router := route.New()
	util := opt.TargetUtil
	var fp *place.Floorplan
	const attempts = 3
	for attempt := 0; attempt <= attempts; attempt++ {
		if attempt > 0 {
			fc.AddStat(flow.StatCongestionRetries, 1)
		}
		var err error
		fp, err = place.NewFloorplan(d, place.Options{
			TargetUtil:  util,
			AspectRatio: 1,
			Tiers:       tiers,
			AreaScale:   areaScale,
		})
		if err != nil {
			return nil, err
		}
		gopt := place.DefaultGlobalOptions()
		gopt.Workers = opt.FlowWorkers
		gopt.Par = &par.Stats{}
		if err := place.Global(d, fp.Core, gopt); err != nil {
			return nil, err
		}
		fc.AddStat(flow.StatParBatches, gopt.Par.Batches)
		fc.AddStat(flow.StatParTasks, gopt.Par.Tasks)
		cm, err := router.Congestion(d, fp.Outline, 16, 16)
		if err != nil {
			return nil, err
		}
		// Per-tier wiring shares the same outline in 3-D, so demand is
		// effectively halved per tier's stack.
		overflow := cm.OverflowFraction()
		if tiers == 2 {
			overflow = overflowAtHalfDemand(cm)
		}
		if overflow <= 0.10 {
			return fp, nil
		}
		if attempt == attempts-1 {
			// Standard budget exhausted: take the one degraded attempt.
			fc.AddStat(flow.StatDegradeUtil, 1)
			fc.MarkDegraded(flow.DegradeUtil)
		}
		util *= 0.82 // relax utilization and retry
	}
	return fp, nil
}

// bottomCapacityFrac returns the largest bottom-die share of movable
// cell area a tier partition may target such that the bottom tier still
// fits its legalization rows (with a fragmentation margin). The FM
// balance fraction counts exactly the movable, non-macro cells — the
// same population the rows must host.
func bottomCapacityFrac(d *netlist.Design, fp *place.Floorplan, bottomLib *cell.Library) float64 {
	rowH := bottomLib.Variant.CellHeight
	rows := float64(int(fp.Core.H() / rowH))
	capArea := fp.Core.W() * rows * rowH * 0.97
	movable, _ := movableArea(d)
	if movable <= 0 {
		return 1
	}
	return capArea / movable
}

// movableArea returns the area of the movable, non-macro cells — the
// population the tier partitioner balances and the rows must host — and
// the part of it on the bottom tier.
func movableArea(d *netlist.Design) (total, bottom float64) {
	for _, inst := range d.Instances {
		if inst.Fixed || inst.Master.Function.IsMacro() {
			continue
		}
		total += inst.Master.Area()
		if inst.Tier == tech.TierBottom {
			bottom += inst.Master.Area()
		}
	}
	return total, bottom
}

// maxShifterRetries bounds the re-partitions that make room for the
// level-shifter ablation's shifters on the bottom die.
const maxShifterRetries = 4

// shifterArea returns the area the level-shifter ablation adds to tier
// t: synth.InsertLevelShifters puts one shifter from lib on the driver's
// tier of every non-clock net with a sink on the other tier.
func shifterArea(d *netlist.Design, t tech.Tier, lib *cell.Library) float64 {
	ls := lib.Smallest(cell.FuncLevelSh)
	if ls == nil {
		return 0
	}
	n := 0
	for _, net := range d.Nets {
		if net.IsClock || !net.Driver.Valid() || net.Driver.Inst.Tier != t {
			continue
		}
		for _, s := range net.Sinks {
			if s.Inst.Tier != t {
				n++
				break
			}
		}
	}
	return float64(n) * ls.Area()
}

// overflowAtHalfDemand evaluates the overflow fraction with per-bin
// demand halved (two routing stacks share the 3-D footprint).
func overflowAtHalfDemand(cm *route.CongestionMap) float64 {
	over := 0
	for i := range cm.DemandH.Vals {
		if cm.DemandH.Vals[i]/2 > cm.SupplyH || cm.DemandV.Vals[i]/2 > cm.SupplyV {
			over++
		}
	}
	return float64(over) / float64(cm.Grid.Bins())
}

// STAConfig is the single constructor for every flow timing analysis:
// sign-off defaults at the given period, extraction through ex (nil =
// sta's fresh extractor), and the clock model (nil = ideal clock). The
// optimization environments, the pre-partition criticality analysis and
// flowd's sessions all build their configuration here so they can never
// drift apart. Timing applies no boundary derates; see the Hetero-M3D
// sign-off note in hetero.go.
func STAConfig(period float64, ex route.Extractor, latency func(*netlist.Instance) float64, workers int) sta.Config {
	cfg := sta.DefaultConfig(period)
	cfg.Router = ex
	cfg.Latency = latency
	cfg.Workers = workers
	return cfg
}

// timingEnv bundles everything needed to (re-)analyze a design's timing
// during optimization. It owns one persistent sta.Timer per flow: every
// analyze call is an incremental update of the same session, reading the
// RC store that sign-off power reads too.
type timingEnv struct {
	// fc is the run's pipeline context; the repair loops poll it so a
	// cancelled run aborts between optimization rounds, not only at
	// stage boundaries, and the timer reports its engine counters into
	// the current stage's metric. nil = no cancellation, no stats.
	fc      *flow.Context
	d       *netlist.Design
	libs    [2]*cell.Library
	ex      route.Extractor
	period  float64
	latency func(*netlist.Instance) float64
	// forceFull pins the timer to full recomputes (set by the
	// degradation path once a retained view has diverged).
	forceFull bool
	// audit verifies the timer's RC store against fresh extraction
	// before every analysis — the detection side of cache-corruption
	// faults.
	audit bool
	// workers bounds the full pass's intra-analysis parallelism
	// (Options.FlowWorkers); results are identical at any value.
	workers int

	timer *sta.Timer
	// lastTS/lastCS snapshot the cumulative engine counters at the last
	// analyze, so each call attributes only its delta to the stage that
	// ran it.
	lastTS sta.TimerStats
	lastCS route.CacheStats
}

func (e *timingEnv) analyze() (*sta.Result, error) {
	if e.timer == nil {
		cfg := STAConfig(e.period, e.ex, e.latency, e.workers)
		cfg.ForceFull = e.forceFull
		t, err := sta.NewTimer(e.d, cfg)
		if err != nil {
			return nil, err
		}
		e.timer = t
	}
	if e.audit {
		// Audit before the timer reads the store: divergence is caught
		// ahead of any sizing decision, so the degraded re-run starts from
		// an untainted design state.
		if err := e.timer.Extraction().Audit(); err != nil {
			return nil, fmt.Errorf("%w: %w", sta.ErrDiverged, err)
		}
	}
	res, err := e.timer.Update()
	if err != nil {
		return nil, err
	}
	e.reportStats()
	return res, nil
}

// reportStats attributes the engine work since the last analyze to the
// currently running stage.
func (e *timingEnv) reportStats() {
	if e.fc == nil || e.timer == nil {
		return
	}
	ts := e.timer.Stats()
	e.fc.AddStat(flow.StatSTAFull, ts.FullUpdates-e.lastTS.FullUpdates)
	e.fc.AddStat(flow.StatSTAIncr, ts.IncrementalUpdates-e.lastTS.IncrementalUpdates)
	e.fc.AddStat(flow.StatSTANodes, ts.NodesReevaluated-e.lastTS.NodesReevaluated)
	e.fc.AddStat(flow.StatParBatches, ts.ParBatches-e.lastTS.ParBatches)
	e.fc.AddStat(flow.StatParTasks, ts.ParTasks-e.lastTS.ParTasks)
	e.lastTS = ts
	cs := e.timer.Extraction().Stats()
	e.fc.AddStat(flow.StatRCHits, cs.Hits-e.lastCS.Hits)
	e.fc.AddStat(flow.StatRCMisses, cs.Misses-e.lastCS.Misses)
	e.lastCS = cs
}

// libOf returns the library an instance sizes within (by its tier for
// hetero designs, the bottom library otherwise).
func (e *timingEnv) libOf(inst *netlist.Instance) *cell.Library {
	if e.libs[1] != nil && inst.Master.Track == e.libs[1].Variant.Track {
		return e.libs[1]
	}
	return e.libs[0]
}

// preSizeForClock is the synthesis-stage timing optimization: before the
// floorplan is frozen, cells on failing paths are upsized against an
// ideal-wire timing estimate at the target clock. Because the floorplan
// is sized *after* this pass at constant utilization, a slow library
// chasing an unreachable target grows the die — the 9-track
// "over-correction in the synthesis stage" the paper reports
// (Sec. IV-B2).
func preSizeForClock(fc *flow.Context, d *netlist.Design, libs [2]*cell.Library, period float64, rounds int, forceFull bool, workers int) error {
	// Pre-placement timing needs a wire-load model: 2.5 fF of estimated
	// wire per sink stands in for the not-yet-placed interconnect, so
	// the sizes baked into the floorplan survive real extraction.
	wlmRouter := route.New()
	wlmRouter.WLMPerSinkFF = 2.5
	e := &timingEnv{fc: fc, d: d, libs: libs, ex: wlmRouter, period: period, forceFull: forceFull, workers: workers}
	// Synthesis aims for margin, not bare closure: cells within 3 % of
	// the period get upsized too, which is what makes a slow library
	// chasing a fast target balloon in area.
	margin := 0.03 * period
	for r := 0; r < rounds; r++ {
		if err := fc.Canceled(); err != nil {
			return err
		}
		res, err := e.analyze()
		if err != nil {
			return err
		}
		if res.WNS >= margin {
			return nil
		}
		slack := res.SlackMap()
		changed := 0
		for _, inst := range d.Instances {
			if inst.Master.Function.IsMacro() || inst.Master.Function.IsClockCell() {
				continue
			}
			if slack[inst.ID] >= margin {
				continue
			}
			up := e.libOf(inst).NextDriveUp(inst.Master)
			if up == nil {
				continue
			}
			if err := d.ReplaceMaster(inst, up); err != nil {
				return fmt.Errorf("core: presize %s: %w", inst.Name, err)
			}
			changed++
		}
		if changed == 0 {
			return nil
		}
	}
	return nil
}

// repairTiming runs the post-placement timing-driven sizing loop: upsize
// every cell with negative worst slack one drive step per round,
// re-legalize, re-analyze. Upsizing stops per tier when the core fills to
// the capacity guard, mirroring a real engine's density limit.
func repairTiming(e *timingEnv, fp *place.Floorplan, rounds int) (*sta.Result, error) {
	return repairTimingBudget(e, fp, rounds, 0.93)
}

// repairTimingBudget is repairTiming with an explicit per-tier capacity
// fraction; the hetero flow runs its pre-ECO pass with a tighter budget
// so the repartitioner keeps headroom on the fast die.
func repairTimingBudget(e *timingEnv, fp *place.Floorplan, rounds int, capFrac float64) (*sta.Result, error) {
	res, err := e.analyze()
	if err != nil {
		return nil, err
	}
	// maxTran is the max-transition DRC limit: drivers whose output slew
	// exceeds it get upsized even off the critical path, because a slow
	// edge poisons every downstream stage's delay (worst-slew
	// propagation). Commercial flows fix these violations before timing.
	const maxTran = 0.060
	// Per-tier capacity from the actual row grid (row quantization makes
	// this slightly less than the raw core area).
	heights := rowHeights(e.libs)
	var budget [2]float64
	for t := 0; t < 2; t++ {
		h := heights[t]
		if h <= 0 {
			h = heights[0]
		}
		rows := float64(int(fp.Core.H() / h))
		budget[t] = fp.Core.W() * rows * h * capFrac
	}
	for r := 0; r < rounds; r++ {
		if err := e.fc.Canceled(); err != nil {
			return nil, err
		}
		// Current movable area per tier.
		var used [2]float64
		for _, inst := range e.d.Instances {
			if inst.Fixed || inst.Master.Function.IsMacro() {
				continue
			}
			used[inst.Tier] += inst.Master.Area()
		}
		slack := res.SlackMap()
		changed := 0
		for _, inst := range e.d.Instances {
			if inst.Master.Function.IsMacro() || inst.Master.Function.IsClockCell() {
				continue
			}
			if slack[inst.ID] >= 0 && res.OutputSlew(inst) <= maxTran {
				continue
			}
			up := e.libOf(inst).NextDriveUp(inst.Master)
			if up == nil {
				// Already at max drive: a slew violator gets its load
				// split with a buffer instead (the far half of the
				// sinks moves behind it) — post-route buffering, the
				// other half of commercial DRC fixing.
				if res.OutputSlew(inst) > maxTran {
					bufArea := e.libOf(inst).Strongest(cell.FuncBuf).Area()
					if used[inst.Tier]+bufArea > budget[inst.Tier] {
						continue
					}
					added, err := splitLoad(e, inst)
					if err != nil {
						return nil, err
					}
					if added {
						used[inst.Tier] += bufArea
						changed++
					}
				}
				continue
			}
			grow := up.Area() - inst.Master.Area()
			if used[inst.Tier]+grow > budget[inst.Tier] {
				continue // density guard: no room on this die
			}
			if err := e.d.ReplaceMaster(inst, up); err != nil {
				return nil, fmt.Errorf("core: repair %s: %w", inst.Name, err)
			}
			used[inst.Tier] += grow
			changed++
		}
		if changed == 0 {
			break
		}
		if _, err := place.LegalizeTiers(e.d, fp.Core, rowHeights(e.libs), fp.Tiers); err != nil {
			return nil, err
		}
		if res, err = e.analyze(); err != nil {
			return nil, err
		}
		if res.WNS >= 0 && r >= 1 {
			break // timing met and DRCs had one cleanup round
		}
	}
	return res, nil
}

// splitLoad inserts a buffer on inst's output net, moving the farther
// half of the sinks behind it. No-op for small fanouts or nets that
// cannot legally split.
func splitLoad(e *timingEnv, inst *netlist.Instance) (bool, error) {
	out := e.d.OutputNet(inst)
	if out == nil || out.IsClock || len(out.Sinks) < 4 {
		return false, nil
	}
	// Sort sinks by distance from the driver; the far half moves.
	sinks := append([]netlist.PinRef{}, out.Sinks...)
	sort.Slice(sinks, func(i, j int) bool {
		di := inst.Loc.ManhattanDist(sinks[i].Loc())
		dj := inst.Loc.ManhattanDist(sinks[j].Loc())
		if di != dj {
			return di < dj
		}
		return sinks[i].Inst.ID < sinks[j].Inst.ID
	})
	far := sinks[len(sinks)/2:]
	lib := e.libOf(inst)
	buf := lib.Strongest(cell.FuncBuf)
	name := fmt.Sprintf("drc_%s", inst.Name)
	if e.d.Instance(name) != nil {
		name = fmt.Sprintf("drc%d_%s", len(e.d.Instances), inst.Name)
	}
	nb, _, err := e.d.InsertBuffer(out, far, buf, name)
	if err != nil {
		return false, fmt.Errorf("core: splitLoad %s: %w", inst.Name, err)
	}
	nb.SetTier(inst.Tier)
	return true, nil
}

// recoverPower downsizes cells whose worst slack comfortably clears the
// period margin, trading unneeded speed for power ("when the timing
// target is not set tightly, the tool starts optimizing for power",
// Sec. IV-A2). Returns the final timing result.
func recoverPower(e *timingEnv, fp *place.Floorplan, res *sta.Result) (*sta.Result, error) {
	slack := res.SlackMap()
	margin := 0.25 * e.period
	changed := 0
	for _, inst := range e.d.Instances {
		f := inst.Master.Function
		if f.IsMacro() || f.IsClockCell() || inst.Master.Drive == 1 {
			continue
		}
		if slack[inst.ID] < margin {
			continue
		}
		lib := e.libOf(inst)
		ms := lib.ByFunction(inst.Master.Function)
		// Step down one drive.
		var down *cell.Master
		for i, m := range ms {
			if m.Drive == inst.Master.Drive && i > 0 {
				down = ms[i-1]
				break
			}
		}
		if down == nil {
			continue
		}
		if err := e.d.ReplaceMaster(inst, down); err != nil {
			return nil, err
		}
		changed++
	}
	if changed == 0 {
		return res, nil
	}
	if _, err := place.LegalizeTiers(e.d, fp.Core, rowHeights(e.libs), fp.Tiers); err != nil {
		return nil, err
	}
	return e.analyze()
}

// collect assembles the PPAC record from the finished implementation.
// store is the flow's RC store (nil for a flow resumed past the stage
// that builds it): sign-off power reads wire loads through it, reusing
// the timing engine's warm slots, and the wirelength and MIV sums then
// read every net it holds current.
func collect(d *netlist.Design, cfg ConfigName, opt Options, fp *place.Floorplan,
	st *sta.Result, router *route.Router, store *route.Cache, notes string, cut int) (*PPAC, *power.Breakdown, error) {

	if store == nil {
		store = route.NewCache(router, d)
	}
	pcfg := power.DefaultConfig(opt.ClockGHz)
	pcfg.Router = store
	pcfg.Hetero = cfg == ConfigHetero
	pw, err := power.Analyze(d, pcfg)
	if err != nil {
		return nil, nil, err
	}

	footprintMM2 := fp.Outline.Area() / 1e6
	sig, clk, mivs := wiring(d, router, store)

	p := &PPAC{
		Design:       d.Name,
		Config:       cfg,
		FreqGHz:      opt.ClockGHz,
		FootprintMM2: footprintMM2,
		SiAreaMM2:    footprintMM2 * float64(fp.Tiers),
		ChipWidthUM:  fp.Outline.W(),
		Density:      place.Density(d, fp),
		WLm:          (sig + clk) / 1e6,
		PowerMW:      pw.Total / 1000,
		LeakageMW:    pw.Leakage / 1000,
		ClockPowerMW: pw.Clock / 1000,
		WNS:          st.WNS,
		TNS:          st.TNS,
		EffDelayNS:   st.EffectiveDelay(),
		CutSize:      cut,
		Refinement:   notes,
		Cells:        d.ComputeStats().Cells,
	}
	if fp.Tiers == 2 {
		p.MIVs = mivs
	}

	var dieCost float64
	if fp.Tiers == 1 {
		dieCost, err = opt.Cost.DieCost2D(footprintMM2)
	} else {
		dieCost, err = opt.Cost.DieCost3D(footprintMM2)
	}
	if err != nil {
		return nil, nil, err
	}
	p.DieCostMicroC = dieCost * 1e6
	p.CostPerCm2 = cost.CostPerCm2(p.DieCostMicroC, p.SiAreaMM2)
	p.PDPpJ = cost.PDP(p.PowerMW, p.EffDelayNS)
	// PPC uses the *achieved* frequency: the target when timing is met,
	// 1/effective-delay when it fails (a design missing its clock only
	// delivers the performance its worst path allows).
	achieved := p.FreqGHz
	if p.WNS < 0 {
		achieved = 1 / p.EffDelayNS
	}
	p.PPC = cost.PPC(achieved, p.PowerMW, p.DieCostMicroC)
	return p, pw, nil
}

// wiring sums the Steiner wirelength and the MIV count over the design
// in net order. Clock wirelength is reported apart (the clock tree owns
// those nets); clock MIVs count, since the 3-D clock tree crosses tiers
// too. Power analysis has just extracted every instance-driven net into
// store; only the nets it holds no current slot for — port-driven ones —
// are routed here.
func wiring(d *netlist.Design, router *route.Router, store *route.Cache) (signal, clock float64, mivs int) {
	for _, n := range d.Nets {
		wl, m, ok := store.Wiring(n)
		if !ok {
			wl, m = router.NetWirelength(n), router.CountMIVs(n)
		}
		if n.IsClock {
			clock += wl
		} else {
			signal += wl
		}
		mivs += m
	}
	return signal, clock, mivs
}
