package sta

import (
	"math"
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

// chainDesign: in → FF → inv × depth → FF → out, all placed on a line.
func chainDesign(t *testing.T, depth int, l *cell.Library) *netlist.Design {
	t.Helper()
	d := netlist.New("chain")
	clk, _ := d.AddNet("clk")
	clk.IsClock = true
	if _, err := d.AddPort("clk", cell.DirClk, clk); err != nil {
		t.Fatal(err)
	}
	in, _ := d.AddNet("in")
	if _, err := d.AddPort("in", cell.DirIn, in); err != nil {
		t.Fatal(err)
	}

	ff0, _ := d.AddInstance("ff0", l.Smallest(cell.FuncDFF))
	ff0.Loc = geom.Pt(0, 0)
	if err := d.Connect(ff0, "D", in); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(ff0, "CK", clk); err != nil {
		t.Fatal(err)
	}
	cur, _ := d.AddNet("q0")
	if err := d.Connect(ff0, "Q", cur); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < depth; i++ {
		inv, _ := d.AddInstance("inv"+itoa(i), l.Smallest(cell.FuncInv))
		inv.Loc = geom.Pt(float64(i+1)*2, 0)
		if err := d.Connect(inv, "A", cur); err != nil {
			t.Fatal(err)
		}
		nxt, _ := d.AddNet("n" + itoa(i))
		if err := d.Connect(inv, "Y", nxt); err != nil {
			t.Fatal(err)
		}
		cur = nxt
	}

	ff1, _ := d.AddInstance("ff1", l.Smallest(cell.FuncDFF))
	ff1.Loc = geom.Pt(float64(depth+1)*2, 0)
	if err := d.Connect(ff1, "D", cur); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(ff1, "CK", clk); err != nil {
		t.Fatal(err)
	}
	q1, _ := d.AddNet("q1")
	if err := d.Connect(ff1, "Q", q1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("out", cell.DirOut, q1); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}

func TestAnalyzeChainMeetsRelaxedClock(t *testing.T) {
	d := chainDesign(t, 10, lib12)
	res, err := Analyze(d, DefaultConfig(5.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.WNS < 0 {
		t.Errorf("relaxed clock should meet timing, WNS = %v", res.WNS)
	}
	if res.TNS != 0 || res.FailingEndpoints != 0 {
		t.Errorf("TNS = %v, failing = %d", res.TNS, res.FailingEndpoints)
	}
	if res.Endpoints < 2 { // ff1.D and out port
		t.Errorf("endpoints = %d", res.Endpoints)
	}
	if res.EffectiveDelay() != 5.0-res.WNS {
		t.Error("EffectiveDelay mismatch")
	}
}

func TestAnalyzeChainFailsTightClock(t *testing.T) {
	d := chainDesign(t, 40, lib12)
	res, err := Analyze(d, DefaultConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.WNS >= 0 {
		t.Errorf("tight clock should fail, WNS = %v", res.WNS)
	}
	if res.TNS >= 0 || res.FailingEndpoints == 0 {
		t.Errorf("TNS = %v, failing = %d", res.TNS, res.FailingEndpoints)
	}
	if res.TNS > res.WNS {
		t.Error("TNS must be ≤ WNS")
	}
}

func TestArrivalMonotoneAlongChain(t *testing.T) {
	d := chainDesign(t, 12, lib12)
	res, err := Analyze(d, DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	prev := res.ArrivalOut(d.Instance("ff0"))
	for i := 0; i < 12; i++ {
		a := res.ArrivalOut(d.Instance("inv" + itoa(i)))
		if a <= prev {
			t.Fatalf("arrival not increasing at inv%d: %v <= %v", i, a, prev)
		}
		prev = a
	}
}

func TestSlowerLibraryFailsFirst(t *testing.T) {
	d12 := chainDesign(t, 30, lib12)
	d9 := chainDesign(t, 30, lib9)
	r12, err := Analyze(d12, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	r9, err := Analyze(d9, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if r9.WNS >= r12.WNS {
		t.Errorf("9-track WNS %v should be worse than 12-track %v", r9.WNS, r12.WNS)
	}
}

func TestCellSlackIdentifiesCriticalCells(t *testing.T) {
	// Two parallel paths of different depth between the same registers:
	// cells on the deep path must be more critical.
	d := netlist.New("two")
	clk, _ := d.AddNet("clk")
	clk.IsClock = true
	if _, err := d.AddPort("clk", cell.DirClk, clk); err != nil {
		t.Fatal(err)
	}
	in, _ := d.AddNet("in")
	if _, err := d.AddPort("in", cell.DirIn, in); err != nil {
		t.Fatal(err)
	}
	ff0, _ := d.AddInstance("ff0", lib12.Smallest(cell.FuncDFF))
	if err := d.Connect(ff0, "D", in); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(ff0, "CK", clk); err != nil {
		t.Fatal(err)
	}
	q, _ := d.AddNet("q")
	if err := d.Connect(ff0, "Q", q); err != nil {
		t.Fatal(err)
	}
	// Short path: 1 inverter. Deep path: 8 inverters.
	short, _ := d.AddInstance("s0", lib12.Smallest(cell.FuncInv))
	if err := d.Connect(short, "A", q); err != nil {
		t.Fatal(err)
	}
	sq, _ := d.AddNet("sq")
	if err := d.Connect(short, "Y", sq); err != nil {
		t.Fatal(err)
	}
	cur := q
	for i := 0; i < 8; i++ {
		inv, _ := d.AddInstance("d"+itoa(i), lib12.Smallest(cell.FuncInv))
		if err := d.Connect(inv, "A", cur); err != nil {
			t.Fatal(err)
		}
		nn, _ := d.AddNet("dn" + itoa(i))
		if err := d.Connect(inv, "Y", nn); err != nil {
			t.Fatal(err)
		}
		cur = nn
	}
	for i, n := range []*netlist.Net{sq, cur} {
		ff, _ := d.AddInstance("cap"+itoa(i), lib12.Smallest(cell.FuncDFF))
		if err := d.Connect(ff, "D", n); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(ff, "CK", clk); err != nil {
			t.Fatal(err)
		}
		qq, _ := d.AddNet("qq" + itoa(i))
		if err := d.Connect(ff, "Q", qq); err != nil {
			t.Fatal(err)
		}
		if _, err := d.AddPort("o"+itoa(i), cell.DirOut, qq); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Analyze(d, DefaultConfig(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.CellSlack(d.Instance("d0")) >= res.CellSlack(d.Instance("s0")) {
		t.Errorf("deep-path cell slack %v should be below short-path %v",
			res.CellSlack(d.Instance("d0")), res.CellSlack(d.Instance("s0")))
	}
	// SlackMap agrees with CellSlack.
	sm := res.SlackMap()
	for _, name := range []string{"d0", "s0", "ff0"} {
		inst := d.Instance(name)
		if math.Abs(sm[inst.ID]-res.CellSlack(inst)) > 1e-12 {
			t.Errorf("SlackMap disagrees for %s", name)
		}
	}
}

func TestClockLatencySkewAffectsSlack(t *testing.T) {
	d := chainDesign(t, 10, lib12)
	base, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	// Useful skew: capture register's clock arrives late → more slack.
	cfg := DefaultConfig(1.0)
	cfg.Latency = func(i *netlist.Instance) float64 {
		if i.Name == "ff1" {
			return 0.1
		}
		return 0
	}
	help, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if help.WNS <= base.WNS {
		t.Errorf("useful skew should improve WNS: %v vs %v", help.WNS, base.WNS)
	}
	// Harmful skew: launch late, capture on time.
	cfg.Latency = func(i *netlist.Instance) float64 {
		if i.Name == "ff0" {
			return 0.1
		}
		return 0
	}
	hurt, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hurt.WNS >= base.WNS {
		t.Errorf("harmful skew should hurt WNS: %v vs %v", hurt.WNS, base.WNS)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	d := netlist.New("cyc")
	a, _ := d.AddInstance("a", lib12.Smallest(cell.FuncInv))
	b, _ := d.AddInstance("b", lib12.Smallest(cell.FuncInv))
	n1, _ := d.AddNet("n1")
	n2, _ := d.AddNet("n2")
	if err := d.Connect(a, "Y", n1); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(b, "A", n1); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(b, "Y", n2); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(a, "A", n2); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(d, DefaultConfig(1.0)); err == nil {
		t.Error("combinational cycle should fail")
	}

	// A loop through a cell that a register also feeds: nand2 reads the
	// DFF's Q and the inverter it drives itself.
	d = registerFedLoop(t)
	if _, err := Analyze(d, DefaultConfig(1.0)); err == nil {
		t.Error("combinational cycle through a register-fed cell should fail Analyze")
	}
	if _, err := TopoOrder(d); err == nil {
		t.Error("combinational cycle through a register-fed cell should fail TopoOrder")
	}
}

// registerFedLoop builds in → DFF → NAND2 ⇄ INV: the NAND2's second
// input is the inverter it drives.
func registerFedLoop(t *testing.T) *netlist.Design {
	t.Helper()
	d := netlist.New("regcyc")
	clk, _ := d.AddNet("clk")
	clk.IsClock = true
	in, _ := d.AddNet("in")
	if _, err := d.AddPort("clk", cell.DirClk, clk); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("in", cell.DirIn, in); err != nil {
		t.Fatal(err)
	}
	ff, _ := d.AddInstance("ff", lib12.Smallest(cell.FuncDFF))
	nand, _ := d.AddInstance("nand", lib12.Smallest(cell.FuncNand2))
	inv, _ := d.AddInstance("inv", lib12.Smallest(cell.FuncInv))
	q, _ := d.AddNet("q")
	y, _ := d.AddNet("y")
	fb, _ := d.AddNet("fb")
	for _, c := range []struct {
		i   *netlist.Instance
		pin string
		n   *netlist.Net
	}{{ff, "D", in}, {ff, "CK", clk}, {ff, "Q", q}, {nand, "A", q}, {nand, "B", fb},
		{nand, "Y", y}, {inv, "A", y}, {inv, "Y", fb}} {
		if err := d.Connect(c.i, c.pin, c.n); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAnalyzeBadPeriod(t *testing.T) {
	d := chainDesign(t, 2, lib12)
	if _, err := Analyze(d, DefaultConfig(0)); err == nil {
		t.Error("zero period should fail")
	}
}

func TestCriticalPathsStructure(t *testing.T) {
	d := chainDesign(t, 10, lib12)
	res, err := Analyze(d, DefaultConfig(0.2))
	if err != nil {
		t.Fatal(err)
	}
	paths := res.CriticalPaths(3)
	if len(paths) == 0 {
		t.Fatal("no paths extracted")
	}
	p := paths[0]
	// Worst path ends at ff1.D through the inverter chain: launch ff0,
	// 10 inverters.
	if p.Endpoint == nil || p.Endpoint.Name != "ff1" {
		t.Fatalf("endpoint = %+v", p.Endpoint)
	}
	if len(p.Stages) != 11 { // ff0 + 10 inverters
		t.Errorf("stages = %d, want 11", len(p.Stages))
	}
	if p.Stages[0].Inst.Name != "ff0" {
		t.Errorf("path starts at %s, want ff0", p.Stages[0].Inst.Name)
	}
	if p.Stages[0].WireDelay != 0 {
		t.Error("launch stage must have zero incoming wire delay")
	}
	if p.Slack != res.WNS {
		t.Errorf("worst path slack %v != WNS %v", p.Slack, res.WNS)
	}
	if p.Delay() <= 0 || p.CellDelaySum() <= 0 {
		t.Error("path delay must be positive")
	}
	if p.Delay() < p.CellDelaySum() {
		t.Error("total delay must include wire delay")
	}
	// Paths are sorted by slack.
	for i := 1; i < len(paths); i++ {
		if paths[i].Slack < paths[i-1].Slack {
			t.Error("paths not sorted by slack")
		}
	}
}

func TestPathTierBreakdown(t *testing.T) {
	d := chainDesign(t, 9, lib12)
	for i, inst := range d.Instances {
		inst.Tier = tech.Tier(i % 2)
	}
	res, err := Analyze(d, DefaultConfig(0.2))
	if err != nil {
		t.Fatal(err)
	}
	p := res.CriticalPaths(1)[0]
	b := p.CellsOnTier(tech.TierBottom)
	tt := p.CellsOnTier(tech.TierTop)
	if b+tt != len(p.Stages) {
		t.Errorf("tier split %d+%d != %d stages", b, tt, len(p.Stages))
	}
	if p.TierCrossings() == 0 {
		t.Error("alternating tiers must cross")
	}
	sum := p.CellDelayOnTier(tech.TierBottom) + p.CellDelayOnTier(tech.TierTop)
	if math.Abs(sum-p.CellDelaySum()) > 1e-12 {
		t.Error("per-tier delays don't sum")
	}
	if p.Wirelength() <= 0 {
		t.Error("path wirelength must be positive")
	}
	wsum := p.WirelengthOnTier(tech.TierBottom) + p.WirelengthOnTier(tech.TierTop)
	if math.Abs(wsum-p.Wirelength()) > 1e-9 {
		t.Error("per-tier wirelength doesn't sum")
	}
}

func TestWorstEndpoints(t *testing.T) {
	d := chainDesign(t, 10, lib12)
	res, err := Analyze(d, DefaultConfig(0.2))
	if err != nil {
		t.Fatal(err)
	}
	w := res.WorstEndpoints(2)
	if len(w) != 2 {
		t.Fatalf("got %d endpoints", len(w))
	}
	if w[0] != res.WNS {
		t.Errorf("worst endpoint %v != WNS %v", w[0], res.WNS)
	}
	if w[1] < w[0] {
		t.Error("endpoints not sorted")
	}
	// Request beyond available clamps.
	if got := res.WorstEndpoints(1000); len(got) != res.Endpoints {
		t.Errorf("clamped endpoints = %d, want %d", len(got), res.Endpoints)
	}
}

func TestAnalyzeOnGeneratedDesign(t *testing.T) {
	d, err := designs.Generate(designs.CPU, lib12, designs.Params{Scale: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Scatter placement.
	for i, inst := range d.Instances {
		inst.Loc = geom.Pt(float64(i%103), float64((i*7)%97))
	}
	res, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Endpoints == 0 {
		t.Fatal("no endpoints on CPU")
	}
	// The multiplier's deep paths must dominate: worst path has many
	// stages.
	p := res.CriticalPaths(1)[0]
	if len(p.Stages) < 10 {
		t.Errorf("CPU worst path only %d stages", len(p.Stages))
	}
}

func TestStageDelayPositive(t *testing.T) {
	d := chainDesign(t, 4, lib12)
	res, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range d.Instances {
		if res.StageDelay(inst) <= 0 {
			t.Errorf("stage delay of %s = %v", inst.Name, res.StageDelay(inst))
		}
	}
}
