package cts

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var (
	lib12 = cell.NewLibrary(tech.Variant12T())
	lib9  = cell.NewLibrary(tech.Variant9T())
)

func placedDesign(t testing.TB, tiers bool) *netlist.Design {
	t.Helper()
	d, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.05, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range d.Instances {
		inst.Loc = geom.Pt(float64(i%71), float64((i*13)%67))
		if tiers {
			inst.Tier = tech.Tier(i % 2)
		}
	}
	return d
}

func seqCount(d *netlist.Design) int {
	n := 0
	for _, inst := range d.Instances {
		if inst.Master.Function.IsSequential() {
			n++
		}
	}
	return n
}

func TestBuild2D(t *testing.T) {
	d := placedDesign(t, false)
	nSeq := seqCount(d)
	res, err := Build(d, DefaultOptions(Mode2D, [2]*cell.Library{lib12, nil}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buffers) == 0 {
		t.Fatal("no buffers inserted")
	}
	if len(res.Latency) != nSeq {
		t.Errorf("latencies for %d sinks, want %d", len(res.Latency), nSeq)
	}
	if res.MaxLatency <= 0 || res.MaxSkew < 0 {
		t.Errorf("latency/skew = %v/%v", res.MaxLatency, res.MaxSkew)
	}
	if res.MaxSkew >= res.MaxLatency {
		t.Error("skew must be below max latency")
	}
	if res.Wirelength <= 0 || res.BufferArea <= 0 {
		t.Error("wirelength/area must be positive")
	}
	if res.CountByTier[1] != 0 {
		t.Error("2-D tree must stay on the bottom die")
	}
	if res.Levels < 2 {
		t.Errorf("levels = %d, want a real tree", res.Levels)
	}
	// Every buffer is a clock cell and every clock sink now hangs off a
	// buffer net.
	for _, buf := range res.Buffers {
		if !buf.Master.Function.IsClockCell() {
			t.Errorf("buffer %s is %v", buf.Name, buf.Master.Function)
		}
	}
	for _, inst := range d.Instances {
		if !inst.Master.Function.IsSequential() {
			continue
		}
		ck := d.NetOf(inst, "CK")
		if ck == nil || !ck.Driver.Valid() || !ck.Driver.Inst.Master.Function.IsClockCell() {
			t.Fatalf("FF %s clock pin not buffered", inst.Name)
		}
	}
}

func TestBuildRespectsLeafFanout(t *testing.T) {
	d := placedDesign(t, false)
	opt := DefaultOptions(Mode2D, [2]*cell.Library{lib12, nil})
	opt.MaxLeafFanout = 10
	if _, err := Build(d, opt); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nets {
		if !n.IsClock {
			continue
		}
		ffSinks := 0
		for _, s := range n.Sinks {
			if s.Spec().Dir == cell.DirClk {
				ffSinks++
			}
		}
		if ffSinks > 10 {
			t.Errorf("clock net %s drives %d FFs, cap is 10", n.Name, ffSinks)
		}
	}
}

func TestBuildHetero3DTopHeavy(t *testing.T) {
	d := placedDesign(t, true)
	res, err := Build(d, DefaultOptions(ModeHetero3D, [2]*cell.Library{lib12, lib9}))
	if err != nil {
		t.Fatal(err)
	}
	total := res.CountByTier[0] + res.CountByTier[1]
	frac := float64(res.CountByTier[tech.TierTop]) / float64(total)
	// The paper observes >75 % of the heterogeneous clock tree on the top
	// die (Table VIII).
	if frac < 0.7 {
		t.Errorf("top-die buffer fraction = %v, want ≥ 0.7", frac)
	}
	// Top-die buffers come from the 9-track library.
	for _, buf := range res.Buffers {
		want := tech.Track12
		if buf.Tier == tech.TierTop {
			want = tech.Track9
		}
		if buf.Master.Track != want {
			t.Errorf("buffer %s on %v uses %v library", buf.Name, buf.Tier, buf.Master.Track)
		}
	}
}

func TestHetero3DSlowerButSmaller(t *testing.T) {
	d2 := placedDesign(t, true)
	res3, err := Build(d2, DefaultOptions(Mode3D, [2]*cell.Library{lib12, lib12}))
	if err != nil {
		t.Fatal(err)
	}
	dh := placedDesign(t, true)
	resH, err := Build(dh, DefaultOptions(ModeHetero3D, [2]*cell.Library{lib12, lib9}))
	if err != nil {
		t.Fatal(err)
	}
	// Table VIII shape: heterogeneous clock tree has less buffer area
	// (9-track cells) but worse latency/skew than homogeneous 12T 3-D.
	if resH.BufferArea >= res3.BufferArea {
		t.Errorf("hetero buffer area %v should be below 12T-3D %v", resH.BufferArea, res3.BufferArea)
	}
	if resH.MaxLatency <= res3.MaxLatency {
		t.Errorf("hetero latency %v should exceed 12T-3D %v", resH.MaxLatency, res3.MaxLatency)
	}
}

func TestMode3DMajorityPlacement(t *testing.T) {
	d := placedDesign(t, true)
	res, err := Build(d, DefaultOptions(Mode3D, [2]*cell.Library{lib12, lib12}))
	if err != nil {
		t.Fatal(err)
	}
	// Alternating tiers → both dies host buffers.
	if res.CountByTier[0] == 0 || res.CountByTier[1] == 0 {
		t.Errorf("3-D tree should span both dies: %v", res.CountByTier)
	}
}

func TestLatencyFunc(t *testing.T) {
	d := placedDesign(t, false)
	res, err := Build(d, DefaultOptions(Mode2D, [2]*cell.Library{lib12, nil}))
	if err != nil {
		t.Fatal(err)
	}
	f := res.LatencyFunc()
	found := false
	for _, inst := range d.Instances {
		if inst.Master.Function.IsSequential() {
			if f(inst) > 0 {
				found = true
			}
		}
		if f(inst) != res.Latency[inst.ID] {
			t.Errorf("LatencyFunc(%s) = %v, map holds %v", inst.Name, f(inst), res.Latency[inst.ID])
		}
	}
	if !found {
		t.Error("no positive latencies")
	}
	// An instance added after the tree was built reads 0, as its missing
	// map key does.
	if got := f(&netlist.Instance{ID: len(d.Instances) + 100}); got != 0 {
		t.Errorf("LatencyFunc of an unclocked new instance = %v, want 0", got)
	}
}

func TestBuildErrors(t *testing.T) {
	d := placedDesign(t, false)
	if _, err := Build(d, Options{Mode: Mode2D, MaxLeafFanout: 1, Libs: [2]*cell.Library{lib12, nil}}); err == nil {
		t.Error("tiny fanout should fail")
	}
	if _, err := Build(d, Options{Mode: Mode2D, MaxLeafFanout: 20}); err == nil {
		t.Error("missing library should fail")
	}
	if _, err := Build(d, Options{Mode: Mode3D, MaxLeafFanout: 20, Libs: [2]*cell.Library{lib12, nil}}); err == nil {
		t.Error("3-D without top library should fail")
	}
	// No clock design.
	nd := netlist.New("noclk")
	if _, err := Build(nd, DefaultOptions(Mode2D, [2]*cell.Library{lib12, nil})); err == nil {
		t.Error("design without clock should fail")
	}
}

func TestBuildTwice(t *testing.T) {
	// After CTS the root clock net drives only the root buffer; a second
	// run sees one sink and builds a trivial tree rather than corrupting
	// the design.
	d := placedDesign(t, false)
	if _, err := Build(d, DefaultOptions(Mode2D, [2]*cell.Library{lib12, nil})); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
