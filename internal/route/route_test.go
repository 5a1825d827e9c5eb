package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var lib = cell.NewLibrary(tech.Variant12T())

func TestRSMTTrivialCases(t *testing.T) {
	if got := RSMT(nil, false).Length; got != 0 {
		t.Errorf("empty RSMT = %v", got)
	}
	if got := RSMT([]geom.Point{geom.Pt(3, 3)}, false).Length; got != 0 {
		t.Errorf("single-pin RSMT = %v", got)
	}
	two := RSMT([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}, false)
	if math.Abs(two.Length-7) > 1e-9 {
		t.Errorf("2-pin RSMT = %v, want 7", two.Length)
	}
	if len(two.SinkPathLen) != 1 || math.Abs(two.SinkPathLen[0]-7) > 1e-9 {
		t.Errorf("2-pin path lens = %v", two.SinkPathLen)
	}
	// Duplicate pins collapse.
	dup := RSMT([]geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(1, 0)}, false)
	if math.Abs(dup.Length-1) > 1e-9 {
		t.Errorf("dup RSMT = %v, want 1", dup.Length)
	}
}

func TestRSMTThreePinOptimal(t *testing.T) {
	// Three corners of a box: optimal RSMT = HPWL of the bbox.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 6)}
	got := RSMT(pts, false).Length
	if math.Abs(got-16) > 1e-9 {
		t.Errorf("3-pin RSMT = %v, want 16", got)
	}
}

func TestRSMTSharesTrunks(t *testing.T) {
	// Four pins in a line with one off-axis: a star from the line would
	// over-count; overlap merging must dedupe the trunk.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0), geom.Pt(30, 0),
	}
	got := RSMT(pts, false).Length
	if math.Abs(got-30) > 1e-9 {
		t.Errorf("collinear RSMT = %v, want 30", got)
	}
}

func TestRSMTBetweenHPWLAndStar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		tr := RSMT(pts, false)
		lower := HPWL(pts)
		// Star upper bound: every pin wired to pin 0 individually.
		star := 0.0
		for _, p := range pts[1:] {
			star += pts[0].ManhattanDist(p)
		}
		return tr.Length >= lower-1e-6 && tr.Length <= star+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRSMTSegmentsAccountForLength(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(50)), float64(rng.Intn(50)))
		}
		tr := RSMT(pts, true)
		segSum := 0.0
		for _, s := range tr.Segments {
			segSum += s.Length()
		}
		return math.Abs(segSum-tr.Length) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// buildNet3D creates a net with a driver and sinks at given locations and
// tiers.
func buildNet3D(t testing.TB, locs []geom.Point, tiers []tech.Tier) (*netlist.Design, *netlist.Net) {
	t.Helper()
	d := netlist.New("n3d")
	n, _ := d.AddNet("n")
	drv, _ := d.AddInstance("drv", lib.Smallest(cell.FuncInv))
	drv.Loc = locs[0]
	drv.Tier = tiers[0]
	in, _ := d.AddNet("in")
	if _, err := d.AddPort("in", cell.DirIn, in); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, "A", in); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, "Y", n); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(locs); i++ {
		s, _ := d.AddInstance(string(rune('a'+i)), lib.Smallest(cell.FuncInv))
		s.Loc = locs[i]
		s.Tier = tiers[i]
		if err := d.Connect(s, "A", n); err != nil {
			t.Fatal(err)
		}
		o, _ := d.AddNet("o" + string(rune('a'+i)))
		if err := d.Connect(s, "Y", o); err != nil {
			t.Fatal(err)
		}
	}
	return d, n
}

func TestCountMIVs(t *testing.T) {
	r := New()
	// Single tier → 0 MIVs.
	_, n := buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5)},
		[]tech.Tier{tech.TierBottom, tech.TierBottom})
	if got := r.CountMIVs(n); got != 0 {
		t.Errorf("single-tier MIVs = %d", got)
	}
	// One sink on the other tier → 1 MIV.
	_, n = buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5)},
		[]tech.Tier{tech.TierBottom, tech.TierTop})
	if got := r.CountMIVs(n); got != 1 {
		t.Errorf("crossing MIVs = %d, want 1", got)
	}
	// Two far-apart minority pins → 2 MIVs; two nearby → 1.
	_, n = buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(100, 100), geom.Pt(0, 1)},
		[]tech.Tier{tech.TierBottom, tech.TierTop, tech.TierTop, tech.TierBottom})
	if got := r.CountMIVs(n); got != 2 {
		t.Errorf("two clusters MIVs = %d, want 2", got)
	}
	_, n = buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(6, 6), geom.Pt(0, 1)},
		[]tech.Tier{tech.TierBottom, tech.TierTop, tech.TierTop, tech.TierBottom})
	if got := r.CountMIVs(n); got != 1 {
		t.Errorf("clustered MIVs = %d, want 1", got)
	}
}

func TestExtract(t *testing.T) {
	r := New()
	_, n := buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10)},
		[]tech.Tier{tech.TierBottom, tech.TierBottom, tech.TierBottom})
	rc := r.Extract(n)
	if math.Abs(rc.WireLen-20) > 1e-9 {
		t.Errorf("WireLen = %v, want 20", rc.WireLen)
	}
	if rc.MIVs != 0 {
		t.Errorf("MIVs = %d", rc.MIVs)
	}
	wantCap := 20 * r.Stack.AvgC()
	if math.Abs(rc.WireCap-wantCap) > 1e-9 {
		t.Errorf("WireCap = %v, want %v", rc.WireCap, wantCap)
	}
	if len(rc.SinkR) != 2 {
		t.Fatalf("SinkR count = %d", len(rc.SinkR))
	}
	// Farther sink has more resistance.
	if rc.SinkR[1] <= rc.SinkR[0] {
		t.Errorf("SinkR = %v, want increasing", rc.SinkR)
	}
}

func TestExtractCrossTierAddsMIVParasitics(t *testing.T) {
	r := New()
	_, flat := buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)},
		[]tech.Tier{tech.TierBottom, tech.TierBottom})
	_, cross := buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)},
		[]tech.Tier{tech.TierBottom, tech.TierTop})
	rcFlat, rcCross := r.Extract(flat), r.Extract(cross)
	if rcCross.WireCap <= rcFlat.WireCap {
		t.Error("crossing net should carry MIV cap")
	}
	if rcCross.SinkR[0] <= rcFlat.SinkR[0] {
		t.Error("crossing sink should carry MIV resistance")
	}
}

// TestWirelengthSeparatesClock checks what the signal/clock wirelength
// split rests on: marking a net as clock changes neither its Steiner
// length nor the store's current slot for it, so a design-wide sum moves
// the net's whole length from the signal side to the clock side.
func TestWirelengthSeparatesClock(t *testing.T) {
	d, n := buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)},
		[]tech.Tier{tech.TierBottom, tech.TierBottom})
	r := New()
	c := NewCache(r, d)
	for _, net := range d.Nets {
		c.Extract(net)
	}
	split := func() (signal, clock float64) {
		for _, net := range d.Nets {
			wl, _, ok := c.Wiring(net)
			if !ok {
				t.Fatalf("net %s: no current slot", net.Name)
			}
			if net.IsClock {
				clock += wl
			} else {
				signal += wl
			}
		}
		return signal, clock
	}
	sig1, clk1 := split()
	if clk1 != 0 || sig1 <= 0 {
		t.Errorf("pre: signal=%v clock=%v", sig1, clk1)
	}
	wl := r.NetWirelength(n)
	if wl <= 0 {
		t.Fatalf("fixture: net length %v", wl)
	}
	n.IsClock = true
	if got := r.NetWirelength(n); got != wl {
		t.Errorf("clock flag changed the net's length: %v → %v", wl, got)
	}
	sig2, clk2 := split()
	if clk2 != wl || sig2 != sig1-wl {
		t.Errorf("post: signal=%v clock=%v, want %v / %v", sig2, clk2, sig1-wl, wl)
	}
}

func TestCongestion(t *testing.T) {
	// A deliberately congested strip: many parallel nets through one bin
	// column.
	d := netlist.New("cong")
	in, _ := d.AddNet("in")
	if _, err := d.AddPort("in", cell.DirIn, in); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a, _ := d.AddInstance("a"+string(rune('0'+i/10))+string(rune('0'+i%10)), lib.Smallest(cell.FuncInv))
		b, _ := d.AddInstance("b"+string(rune('0'+i/10))+string(rune('0'+i%10)), lib.Smallest(cell.FuncInv))
		a.Loc = geom.Pt(0, 5)
		b.Loc = geom.Pt(10, 5)
		n, _ := d.AddNet("n" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
		if err := d.Connect(a, "Y", n); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(b, "A", n); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(a, "A", in); err != nil {
			t.Fatal(err)
		}
		o, _ := d.AddNet("o" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
		if err := d.Connect(b, "Y", o); err != nil {
			t.Fatal(err)
		}
	}
	r := New()
	cm, err := r.Congestion(d, geom.R(0, 0, 10, 10), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// All 40 nets run horizontally through row bins at y=5: demand 40×2.5
	// per bin vs supply.
	if cm.DemandH.Sum() < 350 {
		t.Errorf("H demand = %v, want ≈400", cm.DemandH.Sum())
	}
	if cm.MaxUtilization() <= 0 {
		t.Error("expected nonzero utilization")
	}
	if of := cm.OverflowFraction(); of < 0 || of > 1 {
		t.Errorf("overflow fraction = %v", of)
	}
	if _, err := r.Congestion(d, geom.Rect{}, 4, 4); err == nil {
		t.Error("empty outline should fail")
	}
}

func TestSegmentOrientation(t *testing.T) {
	h := Segment{geom.Pt(0, 5), geom.Pt(9, 5)}
	v := Segment{geom.Pt(2, 0), geom.Pt(2, 7)}
	if !h.Horizontal() || v.Horizontal() {
		t.Error("orientation wrong")
	}
	if h.Length() != 9 || v.Length() != 7 {
		t.Error("length wrong")
	}
}
