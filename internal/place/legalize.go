package place

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// LegalizeReport summarizes a legalization run.
type LegalizeReport struct {
	Cells        int
	MaxDisp      float64 // largest cell displacement, µm
	AvgDisp      float64
	RowsUsed     int
	OverflowArea float64 // cell area that had to spill to far rows
}

// Legalize snaps the given cells into non-overlapping row sites inside
// region using a Tetris-style greedy: cells are processed in x order and
// dropped into the nearest row with space. rowHeight is the library cell
// height — for a heterogeneous 3-D design each tier legalizes separately
// with its own height (9-track rows on top, 12-track on the bottom, the
// visible difference in Fig. 3c).
func Legalize(cells []*netlist.Instance, region geom.Rect, rowHeight float64) (*LegalizeReport, error) {
	if rowHeight <= 0 {
		return nil, fmt.Errorf("place: row height %v must be positive", rowHeight)
	}
	if region.Empty() {
		return nil, fmt.Errorf("place: empty legalization region")
	}
	nRows := int(region.H() / rowHeight)
	if nRows < 1 {
		return nil, fmt.Errorf("place: region height %v below one row %v", region.H(), rowHeight)
	}
	rep := &LegalizeReport{Cells: len(cells)}
	if len(cells) == 0 {
		return rep, nil
	}

	rowY := func(r int) float64 { return region.Ly + (float64(r)+0.5)*rowHeight }
	rowW := region.W()

	// ---- Phase 1: assign each cell to a row near its target y, bounded
	// by per-row width capacity.
	used := make([]float64, nRows)
	rows := make([][]*netlist.Instance, nRows)
	order := append([]*netlist.Instance{}, cells...)
	slices.SortFunc(order, func(a, b *netlist.Instance) int {
		return cmp.Or(cmp.Compare(a.Loc.Y, b.Loc.Y), a.ID-b.ID)
	})
	// Leave a little per-row slack so phase 2 can keep cells near their
	// desired x.
	capW := rowW * 0.99
	for _, c := range order {
		w := c.Master.Width
		target := int((c.Loc.Y - region.Ly) / rowHeight)
		if target < 0 {
			target = 0
		}
		if target >= nRows {
			target = nRows - 1
		}
		r := -1
		for radius := 0; radius < nRows; radius++ {
			if t := target - radius; t >= 0 && used[t]+w <= capW {
				r = t
				break
			}
			if t := target + radius; radius > 0 && t < nRows && used[t]+w <= capW {
				r = t
				break
			}
		}
		if r < 0 {
			// Relax the slack: any row with raw capacity.
			for t := 0; t < nRows; t++ {
				if used[t]+w <= rowW {
					r = t
					break
				}
			}
		}
		if r < 0 {
			var demand float64
			for _, cc := range cells {
				demand += cc.Master.Width
			}
			return nil, fmt.Errorf("place: no row can host cell %s (width %v; %d cells demand %.0f µm of %d×%.0f µm row capacity)",
				c.Name, w, len(cells), demand, nRows, rowW)
		}
		used[r] += w
		rows[r] = append(rows[r], c)
	}

	// ---- Phase 2: within each row, keep cells at their desired x and
	// resolve overlaps with a forward push then a backward pull — the
	// cluster-free core of Abacus-style legalization.
	sumDisp := 0.0
	rowsUsed := 0
	for r, members := range rows {
		if len(members) == 0 {
			continue
		}
		rowsUsed++
		slices.SortFunc(members, func(a, b *netlist.Instance) int {
			return cmp.Or(cmp.Compare(a.Loc.X, b.Loc.X), a.ID-b.ID)
		})
		xs := make([]float64, len(members)) // left edges
		cursor := region.Lx
		for i, c := range members {
			w := c.Master.Width
			x := c.Loc.X - w/2
			if x < cursor {
				x = cursor
			}
			xs[i] = x
			cursor = x + w
		}
		// Pull back anything pushed past the right edge.
		limit := region.Ux
		for i := len(members) - 1; i >= 0; i-- {
			w := members[i].Master.Width
			if xs[i]+w > limit {
				xs[i] = limit - w
			}
			limit = xs[i]
		}
		for i, c := range members {
			w := c.Master.Width
			newLoc := geom.Pt(xs[i]+w/2, rowY(r))
			disp := c.Loc.ManhattanDist(newLoc)
			if disp > rep.MaxDisp {
				rep.MaxDisp = disp
			}
			sumDisp += disp
			if disp > 3*rowHeight+w {
				rep.OverflowArea += c.Master.Area()
			}
			// Journaled move: a no-op for cells that were already legal, so
			// re-legalizing an unchanged region leaves RC caches warm.
			c.SetLoc(newLoc)
		}
	}
	rep.AvgDisp = sumDisp / float64(len(cells))
	rep.RowsUsed = rowsUsed
	return rep, nil
}

// LegalizeTiers legalizes a (possibly heterogeneous) design tier by tier:
// each tier's movable cells snap into rows of that tier's library height.
// 2-D designs call it with one tier's worth of cells on TierBottom.
func LegalizeTiers(d *netlist.Design, core geom.Rect, rowHeight [2]float64, tiers int) ([]*LegalizeReport, error) {
	var reports []*LegalizeReport
	for t := 0; t < tiers; t++ {
		var cells []*netlist.Instance
		for _, inst := range d.Instances {
			if inst.Fixed || inst.Master.Function.IsMacro() {
				continue
			}
			if tiers == 2 && inst.Tier != tech.Tier(t) {
				continue
			}
			cells = append(cells, inst)
		}
		rep, err := Legalize(cells, core, rowHeight[t])
		if err != nil {
			return reports, fmt.Errorf("place: tier %d: %w", t, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// DensityMap bins cell area into an nx × ny histogram over the outline
// for one tier — the data behind the Fig. 3 density/layout views.
func DensityMap(d *netlist.Design, outline geom.Rect, tier tech.Tier, tiers, nx, ny int) (*geom.Histogram, error) {
	grid, err := geom.NewGrid(outline, nx, ny)
	if err != nil {
		return nil, err
	}
	hist := geom.NewHistogram(grid)
	for _, inst := range d.Instances {
		if tiers == 2 && inst.Tier != tier {
			continue
		}
		w, h := inst.Master.Width, inst.Master.Height
		r := geom.R(inst.Loc.X-w/2, inst.Loc.Y-h/2, inst.Loc.X+w/2, inst.Loc.Y+h/2)
		hist.AddRect(r, inst.Master.Area())
	}
	return hist, nil
}
