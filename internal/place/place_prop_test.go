package place

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// randomCells builds n unconnected cells with random desired locations —
// pure legalizer fodder.
func randomCells(t testing.TB, n int, region geom.Rect, seed int64) []*netlist.Instance {
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("rand")
	fns := []cell.Function{cell.FuncInv, cell.FuncNand2, cell.FuncXor2, cell.FuncDFF, cell.FuncMux2}
	var cells []*netlist.Instance
	for i := 0; i < n; i++ {
		m := lib.ForDrive(fns[rng.Intn(len(fns))], 1<<rng.Intn(3))
		inst, err := d.AddInstance("c"+itoa(i), m)
		if err != nil {
			t.Fatal(err)
		}
		inst.Loc = geom.Pt(
			region.Lx+rng.Float64()*region.W(),
			region.Ly+rng.Float64()*region.H(),
		)
		cells = append(cells, inst)
	}
	return cells
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

// Property: the legalizer always produces overlap-free, in-bounds,
// row-aligned placements for any random input that fits, and total
// displacement stays finite and reported.
func TestLegalizeRandomProperty(t *testing.T) {
	region := geom.R(0, 0, 60, 60)
	f := func(seed int64, nSel uint8) bool {
		n := 20 + int(nSel)%400
		cells := randomCells(t, n, region, seed)
		// Skip infeasible inputs (too much area for the region).
		area := 0.0
		for _, c := range cells {
			area += c.Master.Area()
		}
		if area > 0.85*region.Area() {
			return true
		}
		rep, err := Legalize(cells, region, lib.Variant.CellHeight)
		if err != nil {
			return false
		}
		if err := checkLegal(cells, region, 1e-9); err != nil {
			return false
		}
		if rep.Cells != n || rep.MaxDisp < 0 || rep.AvgDisp > rep.MaxDisp+1e-9 {
			return false
		}
		// Row alignment.
		h := lib.Variant.CellHeight
		for _, c := range cells {
			k := (c.Loc.Y - region.Ly) / h
			frac := k - float64(int(k))
			if frac < 0.49 || frac > 0.51 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: legalization is idempotent — a second pass moves nothing
// (every cell is already legal at its position).
func TestLegalizeIdempotent(t *testing.T) {
	region := geom.R(0, 0, 60, 60)
	cells := randomCells(t, 200, region, 11)
	if _, err := Legalize(cells, region, lib.Variant.CellHeight); err != nil {
		t.Fatal(err)
	}
	rep, err := Legalize(cells, region, lib.Variant.CellHeight)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDisp > lib.Variant.CellHeight+2 {
		t.Errorf("second pass displaced cells by %v", rep.MaxDisp)
	}
}

// Property: a hetero floorplan (AreaScale < 1) always yields a smaller
// footprint than the homogeneous 3-D one at the same utilization.
func TestFloorplanAreaScaleMonotone(t *testing.T) {
	d := genDesign(t, "aes", 0.05)
	f := func(scaleSel uint8) bool {
		scale := 0.6 + float64(scaleSel%40)/100 // 0.60..0.99
		fpHet, err := NewFloorplan(d, Options{TargetUtil: 0.7, AspectRatio: 1, Tiers: 2, AreaScale: scale})
		if err != nil {
			return false
		}
		fpHom, err := NewFloorplan(d, Options{TargetUtil: 0.7, AspectRatio: 1, Tiers: 2})
		if err != nil {
			return false
		}
		return fpHet.FootprintArea() < fpHom.FootprintArea()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Aspect-ratio requests are honored by the floorplanner.
func TestFloorplanAspectRatio(t *testing.T) {
	d := genDesign(t, "aes", 0.05)
	for _, ar := range []float64{0.5, 1.0, 2.0} {
		fp, err := NewFloorplan(d, Options{TargetUtil: 0.7, AspectRatio: ar, Tiers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := fp.Outline.H() / fp.Outline.W()
		if got/ar < 0.99 || got/ar > 1.01 {
			t.Errorf("aspect %v: got %v", ar, got)
		}
	}
}
