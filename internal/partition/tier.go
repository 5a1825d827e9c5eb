package partition

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dense"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// TierOptions tunes the 3-D tier partitioning.
type TierOptions struct {
	FM FMOptions
	// BinsX, BinsY define the placement-bin grid for the bin-based FM
	// refinement; ≤1 disables binning (pure global FM).
	BinsX, BinsY int
	// MaxNetDegree excludes enormous nets (pre-CTS clock, reset) from the
	// cut objective; they would dominate runtime without informing the
	// partition.
	MaxNetDegree int
	// BinSweeps is how many scan passes of per-bin FM refinement run.
	BinSweeps int
	// MaxFrac0 caps side 0's share of the movable cell area after the
	// bin refinement (0 disables the cap). The hetero flow derives it
	// from the bottom die's row capacity: the bin-local balance is
	// allowed to drift the global split, but never past what per-tier
	// legalization can physically host.
	MaxFrac0 float64
}

// DefaultTierOptions returns the flow defaults.
func DefaultTierOptions() TierOptions {
	return TierOptions{
		FM:           DefaultFMOptions(),
		BinsX:        8,
		BinsY:        8,
		MaxNetDegree: 64,
		BinSweeps:    2,
	}
}

// TierResult reports what the partitioner did.
type TierResult struct {
	Cut          int
	AreaTop      float64
	AreaBottom   float64
	Preassigned  int
	MovableCells int
}

// TierPartition assigns every instance of d to a tier: the
// placement-driven, area-balanced FM min-cut of the pseudo-3-D flows
// (Sec. III-A1). Side 0 is TierBottom, side 1 is TierTop.
//
// preassign pins specific instances to a tier before FM runs — the hook
// the timing-based partitioning uses to lock critical cells onto the fast
// die. Macros are balanced across tiers by area (alternating assignment)
// unless preassigned.
//
// The algorithm: a multilevel V-cycle (Engine.Multilevel) over the whole
// netlist for the initial min-cut, then (when the design is placed and
// binning is enabled) a bin-based refinement that re-runs FM inside each
// placement bin with external neighbours fixed, enforcing local area
// balance so the 3-D legalization stays close to the pseudo-3-D
// placement.
func TierPartition(d *netlist.Design, outline geom.Rect, preassign map[*netlist.Instance]tech.Tier, opt TierOptions) (*TierResult, error) {
	// Collect movable cells (everything non-macro); idx maps instance ID
	// to cell index, -1 for macros.
	cells := make([]*netlist.Instance, 0, len(d.Instances))
	idx := make([]int32, len(d.Instances))
	for _, inst := range d.Instances {
		if inst.Master.Function.IsMacro() {
			idx[inst.ID] = -1
			continue
		}
		idx[inst.ID] = int32(len(cells))
		cells = append(cells, inst)
	}
	areas := make([]float64, len(cells))
	for i, c := range cells {
		areas[i] = c.Master.Area()
	}

	h := NewHypergraph(areas)
	for i, c := range cells {
		if t, ok := preassign[c]; ok {
			h.Fixed[i] = int8(t)
		}
	}
	maxDeg := opt.MaxNetDegree
	if maxDeg <= 0 {
		maxDeg = 1 << 30
	}
	keep := func(n *netlist.Net) bool { return !n.IsClock && n.Degree() <= maxDeg }
	nNets, nPins := 0, 0
	for _, n := range d.Nets {
		if keep(n) {
			nNets++
			nPins += len(n.Sinks) + 1
		}
	}
	h.Reserve(nNets, nPins)
	for _, n := range d.Nets {
		if !keep(n) {
			continue
		}
		if n.Driver.Valid() {
			if i := idx[n.Driver.Inst.ID]; i >= 0 {
				h.AddPin(int(i))
			}
		}
		for _, s := range n.Sinks {
			if i := idx[s.Inst.ID]; i >= 0 {
				h.AddPin(int(i))
			}
		}
		h.EndNet()
	}

	var eng Engine
	sol, err := eng.Multilevel(h, opt.FM)
	if err != nil {
		return nil, fmt.Errorf("partition: global FM: %w", err)
	}

	// Bin-based refinement keeps the partition locally balanced so 3-D
	// legalization does not scramble the pseudo-3-D placement.
	if opt.BinsX > 1 && opt.BinsY > 1 && !outline.Empty() {
		grid, err := geom.NewGrid(outline, opt.BinsX, opt.BinsY)
		if err != nil {
			return nil, err
		}
		for sweep := 0; sweep < opt.BinSweeps; sweep++ {
			if err := refineBins(&eng, h, sol, cells, grid, opt); err != nil {
				return nil, err
			}
		}
	}

	// Per-bin refinement enforces each bin's local balance, which can
	// drift the global split past the FM window: bins dominated by
	// timing-pinned cells cannot reach the local target while free bins
	// re-center on it, so the pinned side only ever gains area. The
	// drift itself is benign — the refined locality is worth more than
	// the nominal window — until the heavy side outgrows its physical
	// row capacity and per-tier legalization becomes infeasible. The
	// capacity cap trims just enough area to fit, nothing more.
	if opt.MaxFrac0 > 0 {
		trimSide0(h, sol, opt.MaxFrac0)
	}

	res := &TierResult{
		Cut:          CutSize(h, sol.Side),
		Preassigned:  len(preassign),
		MovableCells: len(cells),
	}
	for i, c := range cells {
		c.SetTier(tech.Tier(sol.Side[i]))
		if c.Tier == tech.TierTop {
			res.AreaTop += areas[i]
		} else {
			res.AreaBottom += areas[i]
		}
	}
	assignMacros(d, preassign, res)
	return res, nil
}

// assignMacros balances macros across tiers by area: biggest first onto
// the lighter side, honouring preassignments.
func assignMacros(d *netlist.Design, preassign map[*netlist.Instance]tech.Tier, res *TierResult) {
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
	for _, m := range macros {
		if t, ok := preassign[m]; ok {
			m.SetTier(t)
		} else if res.AreaBottom <= res.AreaTop {
			m.SetTier(tech.TierBottom)
		} else {
			m.SetTier(tech.TierTop)
		}
		if m.Tier == tech.TierTop {
			res.AreaTop += m.Master.Area()
		} else {
			res.AreaBottom += m.Master.Area()
		}
	}
}

// trimSide0 moves free side-0 cells to side 1 until side 0 holds at most
// maxFrac of the total movable area — the capacity guard behind
// TierOptions.MaxFrac0. Candidates leave in order of least cut damage
// (highest FM move gain, cell index as tiebreak); gains are computed once
// up front, which is accurate enough for the small trims the guard
// performs and keeps the pass deterministic and linear.
func trimSide0(h *Hypergraph, sol *Solution, maxFrac float64) {
	total := h.TotalArea()
	if total <= 0 {
		return
	}
	want := maxFrac * total
	if sol.AreaSide[0] <= want {
		return
	}
	cnt := make([][2]int, h.NumNets())
	for ni := range cnt {
		for _, c := range h.Net(ni) {
			cnt[ni][sol.Side[c]]++
		}
	}
	type cand struct {
		idx, gain int
	}
	var cands []cand
	for i := range h.Area {
		if sol.Side[i] != 0 || h.Fixed[i] >= 0 {
			continue
		}
		g := 0
		for _, ni := range h.netsOf(i) {
			if len(h.Net(int(ni))) < 2 {
				continue
			}
			if cnt[ni][0] == 1 {
				g++ // net leaves the cut
			}
			if cnt[ni][1] == 0 {
				g-- // net enters the cut
			}
		}
		cands = append(cands, cand{i, g})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].gain != cands[b].gain {
			return cands[a].gain > cands[b].gain
		}
		return cands[a].idx < cands[b].idx
	})
	for _, c := range cands {
		if sol.AreaSide[0] <= want {
			break
		}
		sol.Side[c.idx] = 1
		sol.AreaSide[0] -= h.Area[c.idx]
		sol.AreaSide[1] += h.Area[c.idx]
	}
	sol.Cut = CutSize(h, sol.Side)
}

// refineBins runs FM inside each placement bin with out-of-bin neighbours
// pinned to their current side. One reusable scratch — dense
// epoch-stamped index maps plus a storage-retaining sub-hypergraph and
// the caller's engine — serves every bin, so the sweep stays off the
// allocator after the first bin. Its passes run in full: a bin's job is
// restoring local balance, and the rebalancing moves are the ones an
// early exit would cut off.
func refineBins(eng *Engine, h *Hypergraph, sol *Solution, cells []*netlist.Instance, grid *geom.Grid, opt TierOptions) error {
	// Bucket cell indices by bin, in CSR form (bin-index rows preserve
	// the old bins-then-cells iteration order exactly).
	var bins dense.CSR[int32]
	bins.Reset(grid.Bins())
	for _, c := range cells {
		ix, iy := grid.Locate(c.Loc)
		bins.Count(int32(grid.Index(ix, iy)))
	}
	bins.Seal()
	for i, c := range cells {
		ix, iy := grid.Locate(c.Loc)
		bins.Append(int32(grid.Index(ix, iy)), int32(i))
	}

	var (
		sh       = NewHypergraph(nil)
		localIdx = make([]int32, len(h.Area))  // global idx → local idx
		localEp  = make([]uint32, len(h.Area)) // valid when == epoch
		netEp    = make([]uint32, h.NumNets())
		areas    []float64
		init     []uint8
		epoch    uint32
	)
	for b := 0; b < bins.Rows(); b++ {
		members := bins.Row(int32(b))
		if len(members) < 4 {
			continue
		}
		epoch++
		ep := epoch
		// Build the bin sub-hypergraph: member cells free, plus two
		// virtual fixed terminals standing in for external pins.
		areas = areas[:0]
		for li, gi := range members {
			localIdx[gi] = int32(li)
			localEp[gi] = ep
			areas = append(areas, h.Area[gi])
		}
		ext0 := len(areas) // virtual terminal on side 0
		ext1 := ext0 + 1
		areas = append(areas, 0, 0)

		sh.ResetCells(areas)
		for li, gi := range members {
			sh.Fixed[li] = h.Fixed[gi] // keep timing pins pinned
		}
		sh.Fixed[ext0] = 0
		sh.Fixed[ext1] = 1

		for _, gi := range members {
			for _, ni := range h.netsOf(int(gi)) {
				if netEp[ni] == ep {
					continue
				}
				netEp[ni] = ep
				net := h.Net(int(ni))
				if len(net) < 2 {
					continue
				}
				hasExt := [2]bool{}
				for _, c := range net {
					if localEp[c] == ep {
						sh.AddPin(int(localIdx[c]))
					} else {
						hasExt[sol.Side[c]] = true
					}
				}
				if hasExt[0] {
					sh.AddPin(ext0)
				}
				if hasExt[1] {
					sh.AddPin(ext1)
				}
				sh.EndNet()
			}
		}

		init = dense.Grow(init, len(areas))
		for li, gi := range members {
			init[li] = sol.Side[gi]
		}
		init[ext0] = 0
		init[ext1] = 1

		fmOpt := opt.FM
		fmOpt.MaxPasses = 4
		ssol, err := eng.FM(sh, init, fmOpt)
		if err != nil {
			// An infeasible bin (e.g. all pinned) is not fatal: keep the
			// current assignment.
			continue
		}
		for li, gi := range members {
			sol.Side[gi] = ssol.Side[li]
		}
	}
	sol.AreaSide = sideAreas(h, sol.Side)
	sol.Cut = CutSize(h, sol.Side)
	return nil
}

// PreassignCritical returns the timing-based pre-assignment of the most
// critical cells to the fast tier (Sec. III-A1): cells are ranked by
// cell-based worst slack (ascending — most negative first) and pinned to
// fastTier until areaFrac of the total movable cell area is covered. The
// paper caps this at 20–30 % to avoid dense physical clusters landing on
// one die and wrecking 3-D legalization.
func PreassignCritical(cells []*netlist.Instance, slack func(*netlist.Instance) float64, areaFrac float64, fastTier tech.Tier) map[*netlist.Instance]tech.Tier {
	type entry struct {
		inst  *netlist.Instance
		slack float64
	}
	total := 0.0
	entries := make([]entry, 0, len(cells))
	for _, c := range cells {
		if c.Master.Function.IsMacro() {
			continue
		}
		total += c.Master.Area()
		entries = append(entries, entry{c, slack(c)})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.slack, b.slack), a.inst.ID-b.inst.ID)
	})
	budget := areaFrac * total
	out := make(map[*netlist.Instance]tech.Tier)
	used := 0.0
	for _, e := range entries {
		if used >= budget {
			break
		}
		out[e.inst] = fastTier
		used += e.inst.Master.Area()
	}
	return out
}
