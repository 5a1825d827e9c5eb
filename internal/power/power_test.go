package power

import (
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/tech"
)

var (
	lib12 = cell.NewLibrary(tech.Variant12T())
	lib9  = cell.NewLibrary(tech.Variant9T())
)

func genPlaced(t *testing.T, name designs.Name, lib *cell.Library) *netlist.Design {
	t.Helper()
	d, err := designs.Generate(name, lib, designs.Params{Scale: 0.02, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range d.Instances {
		inst.Loc = geom.Pt(float64(i%53), float64((i*11)%47))
	}
	return d
}

func TestAnalyzeBasic(t *testing.T) {
	d := genPlaced(t, designs.AES, lib12)
	b, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 {
		t.Fatal("total power must be positive")
	}
	if b.Switching <= 0 || b.Internal <= 0 || b.Leakage <= 0 {
		t.Errorf("components: sw=%v int=%v lk=%v", b.Switching, b.Internal, b.Leakage)
	}
	sum := b.Switching + b.Internal + b.Leakage
	if diff := (b.Total - sum) / b.Total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Total %v != sum of components %v", b.Total, sum)
	}
	// Everything on tier 0 pre-partitioning.
	if b.ByTier[0] <= 0 || b.ByTier[1] != 0 {
		t.Errorf("ByTier = %v", b.ByTier)
	}
}

func TestPowerScalesWithFrequency(t *testing.T) {
	d := genPlaced(t, designs.AES, lib12)
	b1, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Analyze(d, DefaultConfig(2.0))
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic power doubles; leakage constant.
	if b2.Switching < 1.9*b1.Switching || b2.Switching > 2.1*b1.Switching {
		t.Errorf("switching did not scale: %v vs %v", b1.Switching, b2.Switching)
	}
	if b2.Leakage != b1.Leakage {
		t.Errorf("leakage changed with frequency: %v vs %v", b1.Leakage, b2.Leakage)
	}
}

func TestPowerScalesWithActivity(t *testing.T) {
	d := genPlaced(t, designs.AES, lib12)
	lo := DefaultConfig(1.0)
	lo.InputActivity = 0.05
	hi := DefaultConfig(1.0)
	hi.InputActivity = 0.30
	bl, err := Analyze(d, lo)
	if err != nil {
		t.Fatal(err)
	}
	bh, err := Analyze(d, hi)
	if err != nil {
		t.Fatal(err)
	}
	if bh.Switching <= bl.Switching {
		t.Error("higher input activity must raise switching power")
	}
}

func Test9TrackBurnsLess(t *testing.T) {
	d12 := genPlaced(t, designs.AES, lib12)
	d9 := genPlaced(t, designs.AES, lib9)
	b12, err := Analyze(d12, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	b9, err := Analyze(d9, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if b9.Total >= b12.Total {
		t.Errorf("9T total %v should be below 12T %v", b9.Total, b12.Total)
	}
	if b9.Leakage >= b12.Leakage/5 {
		t.Errorf("9T leakage %v should be far below 12T %v", b9.Leakage, b12.Leakage)
	}
}

// bufferClock moves every clock sink of d behind one clock buffer, so
// the design has an instance-driven clock net.
func bufferClock(t *testing.T, d *netlist.Design) {
	t.Helper()
	clk := d.Net("clk")
	cb, err := d.AddInstance("ckbuf0", lib12.Smallest(cell.FuncClkBuf))
	if err != nil {
		t.Fatal(err)
	}
	newClk, err := d.AddNet("clk_l1")
	if err != nil {
		t.Fatal(err)
	}
	newClk.IsClock = true
	// Move all CK sinks onto the buffered net.
	sinks := append([]netlist.PinRef{}, clk.Sinks...)
	for _, s := range sinks {
		if err := d.Disconnect(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Connect(cb, "A", clk); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(cb, "Y", newClk); err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		if err := d.Connect(s.Inst, s.Spec().Name, newClk); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClockCellsCounted(t *testing.T) {
	d := genPlaced(t, designs.AES, lib12)
	bufferClock(t, d)
	b, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if b.Clock <= 0 {
		t.Error("clock power not attributed")
	}
	if b.Clock >= b.Total {
		t.Error("clock power exceeds total")
	}
}

// TestAnalyzeSharesTimerStore pins sign-off's wiring: power analysis on
// the RC store a Timer has just filled is served every signal net from
// the timer's slots and extracts only the clock nets timing leaves to
// it. Given a store of its own, power would miss on every net it reads.
func TestAnalyzeSharesTimerStore(t *testing.T) {
	d := genPlaced(t, designs.AES, lib12)
	bufferClock(t, d)
	tm, err := sta.NewTimer(d, sta.DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}
	var signal, clock int64
	for _, inst := range d.Instances {
		if out := d.OutputNet(inst); out != nil && out.IsClock {
			clock++
		} else if out != nil {
			signal++
		}
	}
	if clock == 0 {
		t.Fatal("design has no instance-driven clock net")
	}
	store := tm.Extraction()
	before := store.Stats()
	cfg := DefaultConfig(1.0)
	cfg.Router = store
	if _, err := Analyze(d, cfg); err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if got := after.Misses - before.Misses; got != clock {
		t.Errorf("power missed %d times on the timer's store, want %d (its clock nets)", got, clock)
	}
	if got := after.Hits - before.Hits; got != signal {
		t.Errorf("power hit %d times on the timer's store, want %d (its signal nets)", got, signal)
	}
}

func TestHeteroDeratesChangeLeakage(t *testing.T) {
	d := genPlaced(t, designs.AES, lib12)
	// Split tiers: boundary cells everywhere.
	for i, inst := range d.Instances {
		inst.Tier = tech.Tier(i % 2)
	}
	base, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1.0)
	cfg.Hetero = true
	het, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fast cells with slow-tier gate inputs gain +250 % leakage, so
	// hetero leakage must rise.
	if het.Leakage <= base.Leakage {
		t.Errorf("hetero leakage %v should exceed base %v", het.Leakage, base.Leakage)
	}
}

func TestNetSwitchingPower(t *testing.T) {
	d := genPlaced(t, designs.CPU, lib12)
	b, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	// Memory macro nets (the Table VIII metric) must carry power.
	found := false
	for _, inst := range d.Instances {
		if !inst.Master.Function.IsMacro() {
			continue
		}
		q := d.NetOf(inst, "Q")
		if q != nil && b.NetSwitchingPower(q) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no macro output net carries switching power")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	d := genPlaced(t, designs.AES, lib12)
	if _, err := Analyze(d, DefaultConfig(0)); err == nil {
		t.Error("zero frequency should fail")
	}
}

func TestActivityBoundedOnDeepLogic(t *testing.T) {
	// XOR trees amplify activity; the clamp must keep it bounded.
	d := genPlaced(t, designs.LDPC, lib12)
	b, err := Analyze(d, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	// With unbounded XOR doubling, power would blow up by orders of
	// magnitude; sanity-bound total power per cell.
	s := d.ComputeStats()
	perCell := b.Total / float64(s.Cells)
	if perCell > 50 {
		t.Errorf("per-cell power %v µW implausibly high (activity clamp broken?)", perCell)
	}
}

// TestFanoutFreeActivityOracle checks activity propagation against the
// closed form on a fanout-free cone, where the independence assumption of
// transition-density propagation is exact. The NAND2 reads a register's
// Q (activity a_q, probability p_q) and INV(AND2(a, b)) (a_c, p_c), so
// its output toggles at a_q·p_c + a_c·p_q.
func TestFanoutFreeActivityOracle(t *testing.T) {
	d := netlist.New("ffree")
	clk, _ := d.AddNet("clk")
	clk.IsClock = true
	nets := map[string]*netlist.Net{"clk": clk}
	for _, name := range []string{"d", "a", "b"} {
		n, _ := d.AddNet(name)
		if _, err := d.AddPort(name, cell.DirIn, n); err != nil {
			t.Fatal(err)
		}
		nets[name] = n
	}
	if _, err := d.AddPort("clk", cell.DirClk, clk); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"q", "c", "nc", "y", "q2"} {
		nets[name], _ = d.AddNet(name)
	}
	// Instance order puts the register before the AND2 so that a
	// levelizer releasing the NAND2 on the register's pop would visit it
	// before its inverter input is known.
	for i, c := range []struct {
		name string
		fn   cell.Function
		pins [][2]string
	}{
		{"ff", cell.FuncDFF, [][2]string{{"D", "d"}, {"CK", "clk"}, {"Q", "q"}}},
		{"and", cell.FuncAnd2, [][2]string{{"A", "a"}, {"B", "b"}, {"Y", "c"}}},
		{"inv", cell.FuncInv, [][2]string{{"A", "c"}, {"Y", "nc"}}},
		{"nand", cell.FuncNand2, [][2]string{{"A", "q"}, {"B", "nc"}, {"Y", "y"}}},
		{"ff2", cell.FuncDFF, [][2]string{{"D", "y"}, {"CK", "clk"}, {"Q", "q2"}}},
	} {
		inst, _ := d.AddInstance(c.name, lib12.Smallest(c.fn))
		inst.Loc = geom.Pt(float64(i)*3, 0)
		for _, p := range c.pins {
			if err := d.Connect(inst, p[0], nets[p[1]]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := DefaultConfig(1.0)
	b, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a0 := cfg.InputActivity
	aq, pq := a0, 0.5             // the DFF passes its D input through
	ac, pc := a0*0.5+a0*0.5, 0.75 // AND2 of two p=0.5 ports, then inverted
	want := aq*pc + ac*pq         // 0.1875 at the default 0.15
	y := nets["y"]
	rc := route.New().Extract(y)
	v := d.Instance("nand").Master.VDD
	wantP := 0.5 * (rc.WireCap + y.TotalPinCap()) * v * v * want * cfg.FreqGHz
	if got := b.NetSwitchingPower(y); math.Abs(got-wantP) > 1e-12*wantP {
		t.Fatalf("NAND2 output switching %v µW, closed form %v µW (activity %v)", got, wantP, want)
	}
}
