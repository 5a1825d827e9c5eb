// Package place implements the placement substrate: utilization-driven
// floorplanning (die sizing, macro placement, I/O spreading), recursive
// min-cut bisection global placement, row-based legalization aware of the
// per-tier cell heights of a heterogeneous 3-D design, and density-map
// extraction for the layout figures.
package place

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/synth"
	"repro/internal/tech"
)

// Floorplan is the physical frame of one implementation: the die outline,
// the standard-cell core region, and the achieved target utilization.
type Floorplan struct {
	// Outline is the full die rectangle (µm).
	Outline geom.Rect
	// Core is the region available to standard cells (outline minus the
	// macro block area).
	Core geom.Rect
	// TargetUtil is the requested cell-area/core-area ratio.
	TargetUtil float64
	// Tiers is 1 for 2-D, 2 for 3-D.
	Tiers int
}

// FootprintArea returns the die footprint in µm².
func (f *Floorplan) FootprintArea() float64 { return f.Outline.Area() }

// SiliconArea returns total silicon: footprint × tier count (the paper's
// "Si Area" metric: identical for a 2-D design and its folded 3-D
// counterpart).
func (f *Floorplan) SiliconArea() float64 { return f.FootprintArea() * float64(f.Tiers) }

// Options tunes floorplanning.
type Options struct {
	// TargetUtil is the standard-cell utilization of the core region.
	TargetUtil float64
	// AspectRatio is outline height/width.
	AspectRatio float64
	// Tiers is 1 (2-D) or 2 (3-D); a 3-D floorplan holds the per-tier
	// cell area (≈ half the total) plus per-tier macros on each die.
	Tiers int
	// AreaScale multiplies the standard-cell area when sizing the die
	// (0 means 1). The heterogeneous flow passes 0.875 here: retargeting
	// half the cells to the 25 % smaller 9-track library cuts cell area
	// by 12.5 %, and "the footprint is reduced accordingly to maintain
	// the chip utilization" (Sec. IV-A2).
	AreaScale float64
}

// DefaultOptions returns the evaluation defaults (70 % utilization,
// square die).
func DefaultOptions() Options {
	return Options{TargetUtil: 0.70, AspectRatio: 1.0, Tiers: 1}
}

// NewFloorplan sizes the die for design d, places macros, and spreads the
// I/O ports around the outline. For Tiers=2, cell and macro area are
// assumed to split evenly across the dies (the tier partitioner's balance
// target), so the footprint holds half of each; the same outline serves
// both tiers.
//
// Macros are stacked in a column block on the left die edge (per tier),
// which matches the edge-macro arrangement of the paper's CPU layouts
// (Fig. 3); the remaining rectangle is the standard-cell core.
func NewFloorplan(d *netlist.Design, opt Options) (*Floorplan, error) {
	if opt.TargetUtil <= 0 || opt.TargetUtil > 1 {
		return nil, fmt.Errorf("place: utilization %v out of (0,1]", opt.TargetUtil)
	}
	if opt.AspectRatio <= 0 {
		return nil, fmt.Errorf("place: aspect ratio %v must be positive", opt.AspectRatio)
	}
	if opt.Tiers != 1 && opt.Tiers != 2 {
		return nil, fmt.Errorf("place: tiers must be 1 or 2, got %d", opt.Tiers)
	}
	s := d.ComputeStats()
	tiers := float64(opt.Tiers)
	scale := opt.AreaScale
	if scale <= 0 {
		scale = 1
	}
	cellNeed := s.CellArea * scale / tiers / opt.TargetUtil
	macroNeed := s.MacroArea / tiers
	total := cellNeed + macroNeed
	if total <= 0 {
		return nil, fmt.Errorf("place: design %s has no area", d.Name)
	}

	w := math.Sqrt(total / opt.AspectRatio)
	h := w * opt.AspectRatio
	outline := geom.R(0, 0, w, h)
	core := outline

	if macroNeed > 0 {
		// Macro block column width: macro area / die height, padded 2 %.
		mw := macroNeed / h * 1.02
		if mw >= w*0.8 {
			return nil, fmt.Errorf("place: macros occupy %v of width %v; floorplan infeasible", mw, w)
		}
		// Re-inflate the outline so the core still fits the cells.
		w = mw + cellNeed/h
		outline = geom.R(0, 0, w, h)
		core = geom.R(mw, 0, w, h)
		placeMacros(d, geom.R(0, 0, mw, h), opt.Tiers)
	}

	synth.SpreadPorts(d, outline)
	return &Floorplan{
		Outline:    outline,
		Core:       core,
		TargetUtil: opt.TargetUtil,
		Tiers:      opt.Tiers,
	}, nil
}

// placeMacros stacks macros bottom-up inside the macro block. For a
// two-tier plan, each tier gets its own stack in the same x-column. Macro
// tier assignment must already be done (or defaults to whatever the
// instances carry).
func placeMacros(d *netlist.Design, block geom.Rect, tiers int) {
	var macros []*netlist.Instance
	for _, inst := range d.Instances {
		if inst.Master.Function.IsMacro() {
			macros = append(macros, inst)
		}
	}
	sort.Slice(macros, func(i, j int) bool { return macros[i].Name < macros[j].Name })
	var yCursor [2]float64
	for _, m := range macros {
		t := m.Tier
		if tiers == 1 {
			t = tech.TierBottom
		}
		h := m.Master.Height
		// Scale the macro into the block width if needed (macro aspect is
		// flexible at floorplan time; area is what matters for cost).
		wScale := 1.0
		if m.Master.Width > block.W() {
			wScale = block.W() / m.Master.Width
			h = h / wScale
		}
		m.SetLoc(geom.Pt(block.Lx+m.Master.Width*wScale/2, yCursor[t]+h/2))
		m.Fixed = true
		yCursor[t] += h
	}
}

// Utilization returns achieved cell area / core area for one tier (or the
// whole design when tier < 0).
func Utilization(d *netlist.Design, fp *Floorplan, tier tech.Tier) float64 {
	area := 0.0
	for _, inst := range d.Instances {
		if inst.Master.Function.IsMacro() {
			continue
		}
		if fp.Tiers == 2 && inst.Tier != tier {
			continue
		}
		area += inst.Master.Area()
	}
	coreArea := fp.Core.Area()
	if coreArea <= 0 {
		return 0
	}
	return area / coreArea
}

// Density reports the average cell density across both tiers of a 3-D
// floorplan (the "Density" row of Table VI): mean of per-tier
// utilizations for Tiers=2, plain utilization for 2-D.
func Density(d *netlist.Design, fp *Floorplan) float64 {
	if fp.Tiers == 1 {
		return Utilization(d, fp, tech.TierBottom)
	}
	return (Utilization(d, fp, tech.TierBottom) + Utilization(d, fp, tech.TierTop)) / 2
}
