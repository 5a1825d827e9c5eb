package place

import (
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// sizedCells adds one instance per width, each on its own copy of the
// unit inverter resized to that width.
func sizedCells(t *testing.T, d *netlist.Design, widths []float64) []*netlist.Instance {
	t.Helper()
	var cells []*netlist.Instance
	for i, w := range widths {
		m := *lib.ForDrive(cell.FuncInv, 1)
		m.Width = w
		inst, err := d.AddInstance("z"+itoa(i), &m)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, inst)
	}
	return cells
}

// TestForcedSplitKeepsBothSides pins the degenerate-cut fallback: a zero
// total area and a last cell heavier than all the others together must
// each still leave a cell on either side.
func TestForcedSplitKeepsBothSides(t *testing.T) {
	for name, widths := range map[string][]float64{
		"zero-area":  {0, 0, 0, 0, 0},
		"heavy-last": {0.1, 0.1, 0.1, 5},
	} {
		cells := sizedCells(t, netlist.New(name), widths)
		left, right, areaLeft := forcedSplit(cells)
		if len(left) == 0 || len(right) == 0 {
			t.Errorf("%s: forcedSplit gave %d|%d cells", name, len(left), len(right))
		}
		sum := 0.0
		for _, c := range left {
			sum += c.Master.Area()
		}
		if sum != areaLeft {
			t.Errorf("%s: areaLeft = %v, left cells hold %v", name, areaLeft, sum)
		}
	}
	// A non-degenerate list splits where it always has: at half the area.
	cells := sizedCells(t, netlist.New("even"), []float64{1, 1, 1, 1})
	if left, _, _ := forcedSplit(cells); len(left) != 2 {
		t.Errorf("even split: left holds %d cells, want 2", len(left))
	}
}

// TestGlobalZeroAreaTerminates places cells of a zero-width master: FM
// leaves every such cut on one side, and the forced split must still
// shrink the regions until they are leaves.
func TestGlobalZeroAreaTerminates(t *testing.T) {
	d := netlist.New("zero")
	widths := make([]float64, 40)
	cells := sizedCells(t, d, widths)
	region := geom.R(0, 0, 50, 50)
	done := make(chan error, 1)
	go func() { done <- Global(d, region, DefaultGlobalOptions()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Global did not return within 10 s on zero-area cells")
	}
	for _, c := range cells {
		if !region.ContainsClosed(c.Loc) {
			t.Errorf("%s placed at %v, outside %v", c.Name, c.Loc, region)
		}
	}
}
