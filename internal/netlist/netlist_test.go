package netlist

import (
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/tech"
)

var lib12 = cell.NewLibrary(tech.Variant12T())
var lib9 = cell.NewLibrary(tech.Variant9T())

// buildMini constructs: in -> INV u1 -> NAND u2 (with in2) -> DFF r1 -> out
func buildMini(t *testing.T) *Design {
	t.Helper()
	d := New("mini")
	inv := lib12.Smallest(cell.FuncInv)
	nand := lib12.Smallest(cell.FuncNand2)
	dff := lib12.Smallest(cell.FuncDFF)

	nIn, _ := d.AddNet("in")
	nIn2, _ := d.AddNet("in2")
	nMid, _ := d.AddNet("mid")
	nD, _ := d.AddNet("d")
	nQ, _ := d.AddNet("q")
	nClk, _ := d.AddNet("clk")
	nClk.IsClock = true

	if _, err := d.AddPort("in", cell.DirIn, nIn); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("in2", cell.DirIn, nIn2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("clk", cell.DirIn, nClk); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("out", cell.DirOut, nQ); err != nil {
		t.Fatal(err)
	}

	u1, err := d.AddInstance("u1", inv)
	if err != nil {
		t.Fatal(err)
	}
	u2, _ := d.AddInstance("u2", nand)
	r1, _ := d.AddInstance("r1", dff)

	for _, c := range []struct {
		inst *Instance
		pin  string
		net  *Net
	}{
		{u1, "A", nIn}, {u1, "Y", nMid},
		{u2, "A", nMid}, {u2, "B", nIn2}, {u2, "Y", nD},
		{r1, "D", nD}, {r1, "CK", nClk}, {r1, "Q", nQ},
	} {
		if err := d.Connect(c.inst, c.pin, c.net); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildAndValidate(t *testing.T) {
	d := buildMini(t)
	if len(d.Instances) != 3 || len(d.Nets) != 6 || len(d.Ports) != 4 {
		t.Errorf("counts: %d insts, %d nets, %d ports", len(d.Instances), len(d.Nets), len(d.Ports))
	}
	if d.Instance("u1") == nil || d.Net("mid") == nil || d.Port("clk") == nil {
		t.Error("name lookups failed")
	}
	if d.Instance("nope") != nil {
		t.Error("unknown instance should be nil")
	}
}

func TestDuplicateNames(t *testing.T) {
	d := New("dup")
	if _, err := d.AddInstance("a", lib12.Smallest(cell.FuncInv)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddInstance("a", lib12.Smallest(cell.FuncInv)); err == nil {
		t.Error("duplicate instance should fail")
	}
	if _, err := d.AddNet("n"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddNet("n"); err == nil {
		t.Error("duplicate net should fail")
	}
	n := d.Net("n")
	if _, err := d.AddPort("p", cell.DirIn, n); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("p", cell.DirOut, n); err == nil {
		t.Error("duplicate port should fail")
	}
}

func TestConnectErrors(t *testing.T) {
	d := New("err")
	n1, _ := d.AddNet("n1")
	n2, _ := d.AddNet("n2")
	u1, _ := d.AddInstance("u1", lib12.Smallest(cell.FuncInv))
	u2, _ := d.AddInstance("u2", lib12.Smallest(cell.FuncInv))

	if err := d.Connect(u1, "Z", n1); err == nil {
		t.Error("unknown pin should fail")
	}
	if err := d.Connect(u1, "Y", n1); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(u2, "Y", n1); err == nil {
		t.Error("double driver should fail")
	}
	if err := d.Connect(u1, "A", n2); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(u1, "A", n2); err == nil {
		t.Error("double connect of same pin should fail")
	}
	// Input port on an already driven net fails.
	if _, err := d.AddPort("bad", cell.DirIn, n1); err == nil {
		t.Error("port driving a driven net should fail")
	}
}

func TestNetQueries(t *testing.T) {
	d := buildMini(t)
	mid := d.Net("mid")
	if !mid.HasDriver() {
		t.Error("mid should have a driver")
	}
	if mid.Degree() != 2 {
		t.Errorf("mid degree = %d, want 2", mid.Degree())
	}
	q := d.Net("q")
	// Driver r1/Q plus port sink.
	if q.Degree() != 2 {
		t.Errorf("q degree = %d, want 2", q.Degree())
	}
	if got := q.TotalPinCap(); got != 4.0 {
		t.Errorf("q pin cap = %v, want the port's 4.0", got)
	}
	in := d.Net("in")
	if in.DriverPort == nil || in.DriverPort.Name != "in" {
		t.Error("in should be port-driven")
	}
	u1 := d.Instance("u1")
	u1.Loc = geom.Pt(3, 4)
	locs := mid.AppendPinLocs(nil)
	if len(locs) != 2 || locs[0] != geom.Pt(3, 4) {
		t.Errorf("AppendPinLocs = %v, want the driver at (3,4) first", locs)
	}
}

func TestOutputAndInputNets(t *testing.T) {
	d := buildMini(t)
	u2 := d.Instance("u2")
	if d.OutputNet(u2) != d.Net("d") {
		t.Error("OutputNet(u2) wrong")
	}
	ins := d.InputNets(u2)
	if len(ins) != 2 {
		t.Errorf("InputNets(u2) = %d nets, want 2", len(ins))
	}
	r1 := d.Instance("r1")
	// DFF inputs include D and CK.
	if len(d.InputNets(r1)) != 2 {
		t.Error("DFF should have 2 input nets (D, CK)")
	}
	if d.NetOf(r1, "CK") != d.Net("clk") {
		t.Error("NetOf(r1, CK) wrong")
	}
	if d.NetOf(r1, "XX") != nil {
		t.Error("NetOf unknown pin should be nil")
	}
	if d.NetAt(r1, 99) != nil || d.NetAt(r1, -1) != nil {
		t.Error("NetAt out of range should be nil")
	}
}

func TestCrossTierNets(t *testing.T) {
	d := buildMini(t)
	mid := d.Net("mid")
	if mid.CrossesTiers() {
		t.Error("all cells on one tier: no crossing")
	}
	d.Instance("u2").Tier = tech.TierTop
	if !mid.CrossesTiers() {
		t.Error("u1 bottom → u2 top should cross")
	}
	s := d.ComputeStats()
	if s.CrossTierNets == 0 {
		t.Error("stats should count cross-tier nets")
	}
}

func TestReplaceMaster(t *testing.T) {
	d := buildMini(t)
	u1 := d.Instance("u1")
	x4 := lib12.ForDrive(cell.FuncInv, 4)
	if err := d.ReplaceMaster(u1, x4); err != nil {
		t.Fatal(err)
	}
	if u1.Master != x4 {
		t.Error("master not replaced")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Retarget to the 9-track equivalent keeps the interface.
	eq, err := lib9.Equivalent(u1.Master)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ReplaceMaster(u1, eq); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mismatched interface fails.
	if err := d.ReplaceMaster(u1, lib12.Smallest(cell.FuncNand2)); err == nil {
		t.Error("pin-count mismatch should fail")
	}
}

func TestInsertBuffer(t *testing.T) {
	d := New("buf")
	drv, _ := d.AddInstance("drv", lib12.Smallest(cell.FuncInv))
	n, _ := d.AddNet("n")
	nin, _ := d.AddNet("nin")
	if _, err := d.AddPort("in", cell.DirIn, nin); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, "A", nin); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(drv, "Y", n); err != nil {
		t.Fatal(err)
	}
	var sinks []*Instance
	for i := 0; i < 6; i++ {
		s, _ := d.AddInstance("s"+string(rune('0'+i)), lib12.Smallest(cell.FuncInv))
		s.Loc = geom.Pt(float64(i), 10)
		if err := d.Connect(s, "A", n); err != nil {
			t.Fatal(err)
		}
		out, _ := d.AddNet("o" + string(rune('0'+i)))
		if err := d.Connect(s, "Y", out); err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, s)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	// Buffer the last three sinks.
	refs := d.Net("n").Sinks[3:6:6]
	moved := append([]PinRef{}, refs...)
	buf, newNet, err := d.InsertBuffer(d.Net("n"), moved, lib12.Smallest(cell.FuncBuf), "buf0")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Net("n").Sinks) != 4 { // 3 kept + buffer input
		t.Errorf("n sinks = %d, want 4", len(d.Net("n").Sinks))
	}
	if len(newNet.Sinks) != 3 {
		t.Errorf("newNet sinks = %d, want 3", len(newNet.Sinks))
	}
	// Buffer placed at centroid of moved sinks (x = (3+4+5)/3 = 4).
	if buf.Loc.X != 4 || buf.Loc.Y != 10 {
		t.Errorf("buffer at %v, want (4,10)", buf.Loc)
	}
	_ = sinks

	// Error cases.
	if _, _, err := d.InsertBuffer(d.Net("n"), nil, lib12.Smallest(cell.FuncBuf), "b1"); err == nil {
		t.Error("no sinks should fail")
	}
	bogus := []PinRef{{Inst: buf, Pin: 0}}
	if _, _, err := d.InsertBuffer(newNet, bogus, lib12.Smallest(cell.FuncBuf), "b2"); err == nil {
		t.Error("sink not on net should fail")
	}
}

// A rejected sink list leaves the design as it was: no buffer instance,
// no new net, no journal movement, and the netlist still validates.
func TestInsertBufferErrorLeavesDesign(t *testing.T) {
	buf := lib12.Smallest(cell.FuncBuf)
	for _, c := range []struct {
		name  string
		sinks func(d *Design) []PinRef
	}{
		{"sink on another net", func(d *Design) []PinRef {
			return []PinRef{{Inst: d.Instance("u1"), Pin: 0}, {Inst: d.Instance("u2"), Pin: 1}}
		}},
		{"sink listed twice", func(d *Design) []PinRef {
			u1A := PinRef{Inst: d.Instance("u1"), Pin: 0}
			return []PinRef{u1A, u1A}
		}},
	} {
		d := buildMini(t)
		in := d.Net("in")
		insts, nets, topo, rev := len(d.Instances), len(d.Nets), d.TopoRev(), d.NetRev(in)
		if _, _, err := d.InsertBuffer(in, c.sinks(d), buf, "bad"); err == nil {
			t.Fatalf("%s: InsertBuffer accepted the sink list", c.name)
		}
		if len(d.Instances) != insts || len(d.Nets) != nets {
			t.Errorf("%s: instances %d → %d, nets %d → %d", c.name, insts, len(d.Instances), nets, len(d.Nets))
		}
		if d.TopoRev() != topo || d.NetRev(in) != rev {
			t.Errorf("%s: journal moved: topo %d → %d, net rev %d → %d", c.name, topo, d.TopoRev(), rev, d.NetRev(in))
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// DisconnectSinks leaves the net without sinks and its pins unbound, and
// moves the journal exactly as one Disconnect per sink does.
func TestDisconnectSinks(t *testing.T) {
	build := func() *Design {
		d := buildMini(t)
		for _, name := range []string{"x1", "x2"} {
			x, _ := d.AddInstance(name, lib12.Smallest(cell.FuncInv))
			if err := d.Connect(x, "A", d.Net("in")); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	bulk, single := build(), build()
	for _, s := range append([]PinRef{}, single.Net("in").Sinks...) {
		if err := single.Disconnect(s); err != nil {
			t.Fatal(err)
		}
	}
	in := bulk.Net("in")
	sinks := append([]PinRef{}, in.Sinks...)
	if err := bulk.DisconnectSinks(in); err != nil {
		t.Fatal(err)
	}
	if len(in.Sinks) != 0 {
		t.Errorf("%d sinks left", len(in.Sinks))
	}
	for _, s := range sinks {
		if bulk.NetAt(s.Inst, s.Pin) != nil {
			t.Errorf("%s still bound", s.Inst.Name)
		}
	}
	if bulk.TopoRev() != single.TopoRev() || !slices.Equal(bulk.NetRevs(), single.NetRevs()) ||
		!slices.Equal(bulk.InstRevs(), single.InstRevs()) {
		t.Errorf("journal: bulk topo %d nets %v, single topo %d nets %v",
			bulk.TopoRev(), bulk.NetRevs(), single.TopoRev(), single.NetRevs())
	}
	if err := bulk.Validate(); err != nil {
		t.Error(err)
	}

	// A sink entry the pin does not point back at is refused, and nothing
	// is detached.
	d := build()
	mid := d.Net("mid")
	mid.Sinks = append(mid.Sinks, PinRef{Inst: d.Instance("x1"), Pin: 0})
	topo := d.TopoRev()
	if err := d.DisconnectSinks(mid); err == nil {
		t.Error("mismatched sink accepted")
	}
	if d.TopoRev() != topo || len(mid.Sinks) != 2 || d.NetOf(d.Instance("u2"), "A") != mid {
		t.Error("refused DisconnectSinks changed the design")
	}
}

func TestDisconnect(t *testing.T) {
	d := buildMini(t)
	mid := d.Net("mid")
	u2 := d.Instance("u2")
	ref := PinRef{Inst: u2, Pin: 0} // pin A
	if err := d.Disconnect(ref); err != nil {
		t.Fatal(err)
	}
	if len(mid.Sinks) != 0 {
		t.Error("sink not removed")
	}
	if d.NetOf(u2, "A") != nil {
		t.Error("pin still bound")
	}
	if err := d.Disconnect(ref); err == nil {
		t.Error("double disconnect should fail")
	}
	// Disconnect the driver too.
	u1 := d.Instance("u1")
	if err := d.Disconnect(PinRef{Inst: u1, Pin: 1}); err != nil {
		t.Fatal(err)
	}
	if mid.HasDriver() {
		t.Error("driver not removed")
	}
	if err := d.Disconnect(PinRef{}); err == nil {
		t.Error("invalid ref should fail")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := buildMini(t)
	// Orphan sink: net lists a pin the instance doesn't point back to.
	mid := d.Net("mid")
	u1 := d.Instance("u1")
	mid.Sinks = append(mid.Sinks, PinRef{Inst: u1, Pin: 0})
	if err := d.Validate(); err == nil {
		t.Error("corrupted sink list should fail validation")
	}
}

func TestStats(t *testing.T) {
	d := buildMini(t)
	s := d.ComputeStats()
	if s.Cells != 3 || s.Sequential != 1 || s.Nets != 6 || s.Ports != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.CellArea <= 0 {
		t.Error("cell area must be positive")
	}
	if s.Macros != 0 || s.MacroArea != 0 {
		t.Error("no macros expected")
	}
	if s.CellsByTier[0] != 3 || s.CellsByTier[1] != 0 {
		t.Errorf("tier counts = %v", s.CellsByTier)
	}

	ram := cell.NewRAMMacro("RAM1", 50, 40, 0.3, 2, 6)
	ri, _ := d.AddInstance("ram0", ram)
	ri.Tier = tech.TierTop
	s = d.ComputeStats()
	if s.Macros != 1 || s.MacroArea != 2000 {
		t.Errorf("macro stats = %+v", s)
	}
	if s.TotalArea() != s.CellArea+s.MacroArea {
		t.Error("TotalArea mismatch")
	}
	if s.CellsByTier[1] != 1 {
		t.Error("tier-top count wrong")
	}
}

func TestInstancesOnTier(t *testing.T) {
	d := buildMini(t)
	d.Instance("u2").Tier = tech.TierTop
	if got := len(d.InstancesOnTier(tech.TierTop)); got != 1 {
		t.Errorf("top tier count = %d", got)
	}
	if got := len(d.InstancesOnTier(tech.TierBottom)); got != 2 {
		t.Errorf("bottom tier count = %d", got)
	}
}

func TestCloneMappedRetarget(t *testing.T) {
	d := buildMini(t)
	c, err := d.CloneMapped(lib9.Equivalent)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Name != d.Name {
		t.Errorf("mapped copy named %q, source %q", c.Name, d.Name)
	}
	for _, inst := range c.Instances {
		if inst.Master.Track != tech.Track9 {
			t.Errorf("instance %s still on %v", inst.Name, inst.Master.Track)
		}
	}
}

func TestConnSnapshot(t *testing.T) {
	d := buildMini(t)
	c := d.Conn()
	for _, inst := range d.Instances {
		if got, want := c.OutputNet(inst), d.OutputNet(inst); got != want {
			t.Errorf("Conn.OutputNet(%s) = %v, want %v", inst.Name, got, want)
		}
		got := c.InputNets(inst)
		want := d.InputNets(inst)
		if len(got) != len(want) {
			t.Fatalf("Conn.InputNets(%s) = %d nets, want %d", inst.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("Conn.InputNets(%s)[%d] mismatch", inst.Name, i)
			}
		}
	}
	if d.Conn() != c {
		t.Error("Conn not cached while topology unchanged")
	}

	// A structural edit must invalidate the snapshot; the rebuilt one
	// reflects the new connectivity.
	mid := d.Net("mid")
	var sink PinRef
	for _, s := range mid.Sinks {
		sink = s
		break
	}
	buf := d.Instances[0].Master // structurally an in/out pair; fine for InsertBuffer
	inst, nn, err := d.InsertBuffer(mid, []PinRef{sink}, buf, "cbuf")
	if err != nil {
		t.Fatalf("InsertBuffer: %v", err)
	}
	c2 := d.Conn()
	if c2 == c {
		t.Fatal("Conn snapshot not invalidated by structural edit")
	}
	if c2.OutputNet(inst) != nn {
		t.Error("rebuilt Conn misses inserted buffer's output")
	}
}
