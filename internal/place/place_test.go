package place

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/cell"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var lib = cell.NewLibrary(tech.Variant12T())

func genDesign(t testing.TB, name designs.Name, scale float64) *netlist.Design {
	t.Helper()
	d, err := designs.Generate(name, lib, designs.Params{Scale: scale, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewFloorplan2D(t *testing.T) {
	d := genDesign(t, designs.AES, 0.05)
	fp, err := NewFloorplan(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fp.Outline.Empty() || fp.Core.Empty() {
		t.Fatal("empty floorplan")
	}
	s := d.ComputeStats()
	util := s.CellArea / fp.Core.Area()
	if math.Abs(util-0.70) > 0.02 {
		t.Errorf("achieved util = %v, want 0.70", util)
	}
	// No macros → core is the whole outline.
	if fp.Core != fp.Outline {
		t.Error("macro-free core should equal outline")
	}
	if fp.SiliconArea() != fp.FootprintArea() {
		t.Error("2-D silicon area should equal footprint")
	}
	// Ports must sit on the outline boundary.
	for _, p := range d.Ports {
		if !fp.Outline.ContainsClosed(p.Loc) {
			t.Errorf("port %s at %v outside outline", p.Name, p.Loc)
		}
	}
}

func TestNewFloorplan3DHalvesFootprint(t *testing.T) {
	d := genDesign(t, designs.AES, 0.05)
	opt2 := DefaultOptions()
	fp2, err := NewFloorplan(d, opt2)
	if err != nil {
		t.Fatal(err)
	}
	opt3 := DefaultOptions()
	opt3.Tiers = 2
	fp3, err := NewFloorplan(d, opt3)
	if err != nil {
		t.Fatal(err)
	}
	r := fp3.FootprintArea() / fp2.FootprintArea()
	if math.Abs(r-0.5) > 0.02 {
		t.Errorf("3-D footprint ratio = %v, want 0.5", r)
	}
	// Same silicon area in both (the paper's invariant).
	if math.Abs(fp3.SiliconArea()/fp2.SiliconArea()-1) > 0.02 {
		t.Errorf("Si area ratio = %v, want 1", fp3.SiliconArea()/fp2.SiliconArea())
	}
}

func TestNewFloorplanWithMacros(t *testing.T) {
	d := genDesign(t, designs.CPU, 0.02)
	fp, err := NewFloorplan(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fp.Core.Lx <= fp.Outline.Lx {
		t.Error("macro column should push the core right")
	}
	// Macros placed and fixed.
	for _, inst := range d.Instances {
		if inst.Master.Function.IsMacro() {
			if !inst.Fixed {
				t.Errorf("macro %s not fixed", inst.Name)
			}
			if inst.Loc.X >= fp.Core.Lx {
				t.Errorf("macro %s at %v inside cell core", inst.Name, inst.Loc)
			}
		}
	}
	// Cache ≈ 40 % of footprint (the generator's contract with the
	// paper's CPU description).
	s := d.ComputeStats()
	frac := s.MacroArea / fp.FootprintArea()
	if frac < 0.28 || frac > 0.52 {
		t.Errorf("macro footprint fraction = %v, want ≈0.4", frac)
	}
}

func TestNewFloorplanErrors(t *testing.T) {
	d := genDesign(t, designs.AES, 0.05)
	bad := DefaultOptions()
	bad.TargetUtil = 0
	if _, err := NewFloorplan(d, bad); err == nil {
		t.Error("zero util should fail")
	}
	bad = DefaultOptions()
	bad.Tiers = 3
	if _, err := NewFloorplan(d, bad); err == nil {
		t.Error("3 tiers should fail")
	}
	bad = DefaultOptions()
	bad.AspectRatio = -1
	if _, err := NewFloorplan(d, bad); err == nil {
		t.Error("negative aspect should fail")
	}
}

func hpwl(d *netlist.Design) float64 {
	tot := 0.0
	for _, n := range d.Nets {
		if n.IsClock {
			continue
		}
		var bb geom.BBox
		for _, p := range n.AppendPinLocs(nil) {
			bb.Extend(p)
		}
		tot += bb.HalfPerimeter()
	}
	return tot
}

func TestGlobalPlacementImprovesWirelength(t *testing.T) {
	d := genDesign(t, designs.LDPC, 0.02)
	fp, err := NewFloorplan(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: random scatter.
	for i, inst := range d.Instances {
		inst.Loc = geom.Pt(
			fp.Core.Lx+float64((i*7919)%1000)/1000*fp.Core.W(),
			fp.Core.Ly+float64((i*104729)%1000)/1000*fp.Core.H(),
		)
	}
	randWL := hpwl(d)

	if err := Global(d, fp.Core, DefaultGlobalOptions()); err != nil {
		t.Fatal(err)
	}
	placedWL := hpwl(d)
	if placedWL >= randWL {
		t.Errorf("placement WL %v not better than random %v", placedWL, randWL)
	}
	// Everything inside the core.
	for _, inst := range d.Instances {
		if !fp.Core.ContainsClosed(inst.Loc) {
			t.Errorf("cell %s at %v outside core", inst.Name, inst.Loc)
		}
	}
}

func TestGlobalEmptyRegionFails(t *testing.T) {
	d := genDesign(t, designs.AES, 0.05)
	if err := Global(d, geom.Rect{}, DefaultGlobalOptions()); err == nil {
		t.Error("empty region should fail")
	}
}

func TestLegalizeProducesLegalRows(t *testing.T) {
	d := genDesign(t, designs.AES, 0.05)
	fp, err := NewFloorplan(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Global(d, fp.Core, DefaultGlobalOptions()); err != nil {
		t.Fatal(err)
	}
	var cells []*netlist.Instance
	for _, inst := range d.Instances {
		if !inst.Fixed {
			cells = append(cells, inst)
		}
	}
	rep, err := Legalize(cells, fp.Core, lib.Variant.CellHeight)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != len(cells) {
		t.Errorf("report cells = %d, want %d", rep.Cells, len(cells))
	}
	if rep.RowsUsed == 0 {
		t.Error("no rows used")
	}
	if err := checkLegal(cells, fp.Core, 1e-6); err != nil {
		t.Fatal(err)
	}
	// Cells snapped to row centers: y - Ly must be (k+0.5)·h.
	h := lib.Variant.CellHeight
	for _, c := range cells[:10] {
		frac := math.Mod((c.Loc.Y-fp.Core.Ly)/h, 1.0)
		if math.Abs(frac-0.5) > 1e-6 {
			t.Errorf("cell %s not row-aligned: y=%v", c.Name, c.Loc.Y)
		}
	}
}

func TestLegalizeErrors(t *testing.T) {
	if _, err := Legalize(nil, geom.R(0, 0, 10, 10), 0); err == nil {
		t.Error("zero row height should fail")
	}
	if _, err := Legalize(nil, geom.Rect{}, 1); err == nil {
		t.Error("empty region should fail")
	}
	if _, err := Legalize(nil, geom.R(0, 0, 10, 0.5), 1.2); err == nil {
		t.Error("region below one row should fail")
	}
	// Region too small for the cells.
	d := genDesign(t, designs.AES, 0.05)
	var cells []*netlist.Instance
	for _, inst := range d.Instances {
		cells = append(cells, inst)
	}
	if _, err := Legalize(cells, geom.R(0, 0, 3, 3), 1.2); err == nil {
		t.Error("overfull region should fail")
	}
}

func TestLegalizeTiersHeteroHeights(t *testing.T) {
	d := genDesign(t, designs.AES, 0.03)
	opt := DefaultOptions()
	opt.Tiers = 2
	fp, err := NewFloorplan(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate tiers, scatter.
	for i, inst := range d.Instances {
		inst.Tier = tech.Tier(i % 2)
		inst.Loc = geom.Pt(
			fp.Core.Lx+float64((i*31)%100)/100*fp.Core.W(),
			fp.Core.Ly+float64((i*57)%100)/100*fp.Core.H(),
		)
	}
	h9 := tech.Variant9T().CellHeight
	h12 := tech.Variant12T().CellHeight
	reps, err := LegalizeTiers(d, fp.Core, [2]float64{h12, h9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d reports", len(reps))
	}
	// Per-tier legality.
	for ti := 0; ti < 2; ti++ {
		var cells []*netlist.Instance
		for _, inst := range d.Instances {
			if inst.Tier == tech.Tier(ti) && !inst.Fixed {
				cells = append(cells, inst)
			}
		}
		if err := checkLegal(cells, fp.Core, 1e-6); err != nil {
			t.Errorf("tier %d: %v", ti, err)
		}
	}
}

func TestUtilizationAndDensity(t *testing.T) {
	d := genDesign(t, designs.AES, 0.05)
	fp, err := NewFloorplan(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	u := Utilization(d, fp, tech.TierBottom)
	if math.Abs(u-0.70) > 0.02 {
		t.Errorf("utilization = %v", u)
	}
	if den := Density(d, fp); math.Abs(den-u) > 1e-9 {
		t.Errorf("2-D density %v should equal utilization %v", den, u)
	}
}

func TestDensityMap(t *testing.T) {
	d := genDesign(t, designs.AES, 0.05)
	fp, err := NewFloorplan(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Global(d, fp.Core, DefaultGlobalOptions()); err != nil {
		t.Fatal(err)
	}
	hist, err := DensityMap(d, fp.Outline, tech.TierBottom, 1, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := d.ComputeStats()
	if math.Abs(hist.Sum()-s.CellArea)/s.CellArea > 0.01 {
		t.Errorf("density map total %v != cell area %v", hist.Sum(), s.CellArea)
	}
	if _, err := DensityMap(d, fp.Outline, tech.TierBottom, 1, 0, 5); err == nil {
		t.Error("bad grid should fail")
	}
}

// checkLegal verifies that no two cells of the same tier overlap and that
// every cell is inside region (tolerating eps). It is the test oracle for
// the legalizer.
func checkLegal(cells []*netlist.Instance, region geom.Rect, eps float64) error {
	type rowKey struct {
		tier tech.Tier
		y    int64
	}
	rows := make(map[rowKey][]*netlist.Instance)
	for _, c := range cells {
		half := c.Master.Width / 2
		if c.Loc.X-half < region.Lx-eps || c.Loc.X+half > region.Ux+eps ||
			c.Loc.Y < region.Ly-eps || c.Loc.Y > region.Uy+eps {
			return fmt.Errorf("place: cell %s at %v outside region %v", c.Name, c.Loc, region)
		}
		k := rowKey{c.Tier, int64(math.Round(c.Loc.Y * 1e6))}
		rows[k] = append(rows[k], c)
	}
	// Check rows in (tier, y) order so the first error named is the same
	// on every run.
	keys := make([]rowKey, 0, len(rows))
	for k := range rows { //maporder:ok collection loop; keys sorted immediately below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tier != keys[j].tier {
			return keys[i].tier < keys[j].tier
		}
		return keys[i].y < keys[j].y
	})
	for _, k := range keys {
		row := rows[k]
		sort.Slice(row, func(i, j int) bool { return row[i].Loc.X < row[j].Loc.X })
		for i := 1; i < len(row); i++ {
			a, b := row[i-1], row[i]
			if a.Loc.X+a.Master.Width/2 > b.Loc.X-b.Master.Width/2+eps {
				return fmt.Errorf("place: cells %s and %s overlap in row y=%v", a.Name, b.Name, a.Loc.Y)
			}
		}
	}
	return nil
}

func TestCheckLegalDetectsOverlap(t *testing.T) {
	d := netlist.New("ov")
	a, _ := d.AddInstance("a", lib.Smallest(cell.FuncInv))
	b, _ := d.AddInstance("b", lib.Smallest(cell.FuncInv))
	a.Loc = geom.Pt(5, 0.6)
	b.Loc = geom.Pt(5.1, 0.6) // overlapping in the same row
	err := checkLegal([]*netlist.Instance{a, b}, geom.R(0, 0, 10, 10), 1e-9)
	if err == nil {
		t.Error("overlap not detected")
	}
	b.Loc = geom.Pt(6, 0.6)
	if err := checkLegal([]*netlist.Instance{a, b}, geom.R(0, 0, 10, 10), 1e-9); err != nil {
		t.Errorf("non-overlapping cells flagged: %v", err)
	}
	// Different tiers may share coordinates.
	b.Loc = a.Loc
	b.Tier = tech.TierTop
	if err := checkLegal([]*netlist.Instance{a, b}, geom.R(0, 0, 10, 10), 1e-9); err != nil {
		t.Errorf("cross-tier overlap flagged: %v", err)
	}
}
