package check

import (
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var (
	lib12 = cell.NewLibrary(tech.Variant12T())
	lib9  = cell.NewLibrary(tech.Variant9T())
)

// chain builds a clean in → FF → inv×depth → FF → out design with every
// cell legally placed on the 12-track row grid of core.
func chain(t *testing.T, depth int) (*netlist.Design, Input) {
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
	connect := func(i *netlist.Instance, pin string, n *netlist.Net) {
		t.Helper()
		if err := d.Connect(i, pin, n); err != nil {
			t.Fatal(err)
		}
	}
	h := lib12.Variant.CellHeight
	ff0, _ := d.AddInstance("ff0", lib12.Smallest(cell.FuncDFF))
	ff0.SetLoc(geom.Pt(2, h/2))
	connect(ff0, "D", in)
	connect(ff0, "CK", clk)
	cur, _ := d.AddNet("q0")
	connect(ff0, "Q", cur)
	for i := 0; i < depth; i++ {
		inv, _ := d.AddInstance("inv"+string(rune('a'+i)), lib12.Smallest(cell.FuncInv))
		inv.SetLoc(geom.Pt(float64(i+2)*3, h/2))
		connect(inv, "A", cur)
		nxt, _ := d.AddNet("n" + string(rune('a'+i)))
		connect(inv, "Y", nxt)
		cur = nxt
	}
	ff1, _ := d.AddInstance("ff1", lib12.Smallest(cell.FuncDFF))
	ff1.SetLoc(geom.Pt(float64(depth+2)*3, h/2))
	connect(ff1, "D", cur)
	connect(ff1, "CK", clk)
	q1, _ := d.AddNet("q1")
	connect(ff1, "Q", q1)
	if _, err := d.AddPort("out", cell.DirOut, q1); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	outline := geom.R(0, 0, float64(depth+4)*3, 4*h)
	return d, Input{
		Design:        d,
		Tiers:         1,
		HaveFloorplan: true,
		Core:          outline,
		Outline:       outline,
		RowHeights:    [2]float64{h, 0},
		Libs:          [2]*cell.Library{lib12, nil},
	}
}

// violations of one rule ID in the report.
func byRule(rep *Report, id string) []Violation {
	var out []Violation
	for _, v := range rep.Violations {
		if v.Rule == id {
			out = append(out, v)
		}
	}
	return out
}

func ruleStat(t *testing.T, rep *Report, id string) RuleStat {
	t.Helper()
	for _, s := range rep.Stats {
		if s.ID == id {
			return s
		}
	}
	t.Fatalf("rule %s missing from report stats", id)
	return RuleStat{}
}

// assertFires asserts that exactly the given rule fired (at least once)
// and no other rule produced findings.
func assertFires(t *testing.T, rep *Report, id string) Violation {
	t.Helper()
	vs := byRule(rep, id)
	if len(vs) == 0 {
		t.Fatalf("rule %s did not fire; report: %v", id, rep.Violations)
	}
	for _, v := range rep.Violations {
		if v.Rule != id {
			t.Fatalf("unexpected extra finding %v", v)
		}
	}
	if st := ruleStat(t, rep, id); st.Violations != len(vs) {
		t.Fatalf("rule %s stat count %d != %d findings", id, st.Violations, len(vs))
	}
	return vs[0]
}

func TestCleanDesignAllRules(t *testing.T) {
	_, in := chain(t, 4)
	rep := Run(in, ClassAll)
	if n := rep.Count(Info); n != 0 {
		t.Fatalf("clean design has %d findings: %v", n, rep.Violations)
	}
	if rep.Checked() == 0 {
		t.Fatal("no objects checked")
	}
	if err := rep.Err(Warning); err != nil {
		t.Fatalf("Err on clean report: %v", err)
	}
}

func TestERC001DanglingNet(t *testing.T) {
	d, in := chain(t, 2)
	if _, err := d.AddNet("orphan"); err != nil {
		t.Fatal(err)
	}
	v := assertFires(t, Run(in, ClassERC), "ERC-001")
	if v.Obj != "orphan" || v.Severity != Warning {
		t.Fatalf("finding = %+v", v)
	}
}

func TestERC002UndrivenNet(t *testing.T) {
	d, in := chain(t, 2)
	n, _ := d.AddNet("undriven")
	sink, _ := d.AddInstance("load", lib12.Smallest(cell.FuncInv))
	sink.SetLoc(geom.Pt(3, lib12.Variant.CellHeight/2*3)) // second row
	if err := d.Connect(sink, "A", n); err != nil {
		t.Fatal(err)
	}
	// The floating Y output of the load inverter is legal mid-flow; only
	// the undriven input net is the error here.
	rep := Run(in, ClassERC)
	vs := byRule(rep, "ERC-002")
	if len(vs) != 1 || vs[0].Obj != "undriven" || vs[0].Severity != Error {
		t.Fatalf("ERC-002 findings = %v", vs)
	}
}

func TestERC003MultiDrivenNet(t *testing.T) {
	d, in := chain(t, 2)
	// Fabricate contention behind the API's back: the port claims a net
	// that an instance pin already drives.
	n := d.Net("q0")
	n.DriverPort = &netlist.Port{Name: "rogue", Dir: cell.DirIn, Net: n}
	v := assertFires(t, Run(in, ClassERC), "ERC-003")
	if v.Obj != "q0" {
		t.Fatalf("finding = %+v", v)
	}
}

func TestERC004FloatingInput(t *testing.T) {
	d, in := chain(t, 2)
	idle, _ := d.AddInstance("idle", lib12.Smallest(cell.FuncInv))
	idle.SetLoc(geom.Pt(6, lib12.Variant.CellHeight/2*3))
	out, _ := d.AddNet("idle_out")
	if err := d.Connect(idle, "Y", out); err != nil {
		t.Fatal(err)
	}
	sink, _ := d.AddInstance("idle_sink", lib12.Smallest(cell.FuncInv))
	sink.SetLoc(geom.Pt(9, lib12.Variant.CellHeight/2*3))
	if err := d.Connect(sink, "A", out); err != nil {
		t.Fatal(err)
	}
	sout, _ := d.AddNet("idle_sout")
	if err := d.Connect(sink, "Y", sout); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("idle_o", cell.DirOut, sout); err != nil {
		t.Fatal(err)
	}
	rep := Run(in, ClassERC)
	vs := byRule(rep, "ERC-004")
	if len(vs) != 1 || vs[0].Obj != "idle" {
		t.Fatalf("ERC-004 findings = %v (all: %v)", vs, rep.Violations)
	}
}

func TestERC005UnconnectedClock(t *testing.T) {
	d, in := chain(t, 2)
	ff := d.Instance("ff1")
	ck := d.NetOf(ff, "CK")
	if err := d.Disconnect(netlist.PinRef{Inst: ff, Pin: pinIndex(t, ff, "CK")}); err != nil {
		t.Fatal(err)
	}
	_ = ck
	in.ClockBuilt = true
	v := assertFires(t, Run(in, ClassERC), "ERC-005")
	if v.Obj != "ff1" {
		t.Fatalf("finding = %+v", v)
	}
	// Pre-CTS the same state is legal.
	in.ClockBuilt = false
	if vs := byRule(Run(in, ClassERC), "ERC-005"); len(vs) != 0 {
		t.Fatalf("ERC-005 fired pre-CTS: %v", vs)
	}
}

func pinIndex(t *testing.T, inst *netlist.Instance, name string) int {
	t.Helper()
	for i, p := range inst.Master.Pins {
		if p.Name == name {
			return i
		}
	}
	t.Fatalf("no pin %s on %s", name, inst.Name)
	return -1
}

func TestERC006ForeignTrackMaster(t *testing.T) {
	d, in := chain(t, 2)
	// A 9-track master in a flow whose only library is 12-track.
	if err := d.ReplaceMaster(d.Instance("inva"), lib9.Smallest(cell.FuncInv)); err != nil {
		t.Fatal(err)
	}
	v := assertFires(t, Run(in, ClassERC), "ERC-006")
	if v.Obj != "inva" {
		t.Fatalf("finding = %+v", v)
	}
}

func TestERC006InvalidMaster(t *testing.T) {
	d, in := chain(t, 2)
	bad := &cell.Master{Name: "broken"} // zero size, no tables
	if _, err := d.AddInstance("junk", bad); err != nil {
		t.Fatal(err)
	}
	rep := Run(in, ClassERC)
	vs := byRule(rep, "ERC-006")
	if len(vs) != 1 || vs[0].Obj != "junk" {
		t.Fatalf("ERC-006 findings = %v", vs)
	}
}

func TestERC007BindingMismatch(t *testing.T) {
	d, in := chain(t, 2)
	// Drop the net-side sink record while the instance still points at it.
	n := d.Net("q0")
	n.Sinks = nil
	rep := Run(in, ClassERC)
	vs := byRule(rep, "ERC-007")
	if len(vs) == 0 {
		t.Fatalf("ERC-007 did not fire: %v", rep.Violations)
	}
}

func TestERC008CombinationalLoop(t *testing.T) {
	d, in := chain(t, 2)
	a, _ := d.AddInstance("loop_a", lib12.Smallest(cell.FuncInv))
	b, _ := d.AddInstance("loop_b", lib12.Smallest(cell.FuncInv))
	h := lib12.Variant.CellHeight
	a.SetLoc(geom.Pt(3, h/2*3))
	b.SetLoc(geom.Pt(6, h/2*3))
	n1, _ := d.AddNet("loop_n1")
	n2, _ := d.AddNet("loop_n2")
	for _, c := range []struct {
		i   *netlist.Instance
		pin string
		n   *netlist.Net
	}{{a, "Y", n1}, {b, "A", n1}, {b, "Y", n2}, {a, "A", n2}} {
		if err := d.Connect(c.i, c.pin, c.n); err != nil {
			t.Fatal(err)
		}
	}
	v := assertFires(t, Run(in, ClassERC), "ERC-008")
	if !strings.Contains(v.Msg, "loop") {
		t.Fatalf("finding = %+v", v)
	}
}

func TestDRC001Overlap(t *testing.T) {
	d, in := chain(t, 2)
	// Two inverters shoved onto the same spot of one row.
	d.Instance("invb").SetLoc(d.Instance("inva").Loc)
	v := assertFires(t, Run(in, ClassDRC), "DRC-001")
	if v.Obj != "inva" {
		t.Fatalf("finding = %+v", v)
	}
}

func TestDRC002OffRow(t *testing.T) {
	d, in := chain(t, 2)
	inv := d.Instance("inva")
	inv.SetLoc(geom.Pt(inv.Loc.X, inv.Loc.Y+0.31*lib12.Variant.CellHeight))
	v := assertFires(t, Run(in, ClassDRC), "DRC-002")
	if v.Obj != "inva" {
		t.Fatalf("finding = %+v", v)
	}
}

func TestDRC003OutOfCore(t *testing.T) {
	d, in := chain(t, 2)
	inv := d.Instance("inva")
	inv.SetLoc(geom.Pt(in.Core.Ux+5, inv.Loc.Y))
	rep := Run(in, ClassDRC)
	vs := byRule(rep, "DRC-003")
	if len(vs) != 1 || vs[0].Obj != "inva" {
		t.Fatalf("DRC-003 findings = %v (all: %v)", vs, rep.Violations)
	}
}

func TestDRC003MacroOutsideOutline(t *testing.T) {
	d, in := chain(t, 2)
	inv := d.Instance("inva")
	inv.Fixed = true
	inv.SetLoc(geom.Pt(-50, -50))
	v := assertFires(t, Run(in, ClassDRC), "DRC-003")
	if v.Obj != "inva" || !strings.Contains(v.Msg, "column") {
		t.Fatalf("finding = %+v", v)
	}
}

func TestDRC004Overutilization(t *testing.T) {
	d, in := chain(t, 2)
	in.Core = geom.R(0, 0, 0.5, lib12.Variant.CellHeight)
	_ = d
	// The shrunken core also trips bounds/off-row rules; only assert on
	// the utilization finding.
	vs := byRule(Run(in, ClassDRC), "DRC-004")
	if len(vs) != 1 || vs[0].Obj != "bottom" {
		t.Fatalf("DRC-004 findings = %v", vs)
	}
}

func TestTDR001TierRange2D(t *testing.T) {
	d, in := chain(t, 2)
	d.Instance("inva").SetTier(tech.TierTop) // in a Tiers=1 input
	v := assertFires(t, Run(in, ClassTDR), "TDR-001")
	if v.Obj != "inva" {
		t.Fatalf("finding = %+v", v)
	}
}

func TestTDR002MIVAccounting(t *testing.T) {
	d, in := chain(t, 2)
	in.Tiers = 2
	in.Libs = [2]*cell.Library{lib12, lib12}
	in.RowHeights = [2]float64{lib12.Variant.CellHeight, lib12.Variant.CellHeight}
	d.Instance("inva").SetTier(tech.TierTop)
	reported := 0 // stale: the cut nets around inva need MIVs
	in.ReportedMIVs = &reported
	v := assertFires(t, Run(in, ClassTDR), "TDR-002")
	if v.Obj != "design" || !strings.Contains(v.Msg, "PPAC") {
		t.Fatalf("finding = %+v", v)
	}
	// With the true count the rule is clean.
	rep := Run(Input{Design: d, Tiers: 2, Libs: in.Libs}, ClassTDR)
	if vs := byRule(rep, "TDR-002"); len(vs) != 0 {
		t.Fatalf("TDR-002 on consistent design: %v", vs)
	}
}

func TestTDR003TierLibraryMismatch(t *testing.T) {
	d, in := chain(t, 2)
	in.Tiers = 2
	in.TierLibs = true
	in.Libs = [2]*cell.Library{lib12, lib9}
	in.RowHeights = [2]float64{lib12.Variant.CellHeight, lib9.Variant.CellHeight}
	// inva moves to the 9-track top die but keeps its 12-track master.
	d.Instance("inva").SetTier(tech.TierTop)
	rep := Run(in, ClassTDR)
	vs := byRule(rep, "TDR-003")
	if len(vs) != 1 || vs[0].Obj != "inva" {
		t.Fatalf("TDR-003 findings = %v (all: %v)", vs, rep.Violations)
	}
}

func TestENG001JournalCoverage(t *testing.T) {
	d, in := chain(t, 2)
	// Smuggle an instance past AddInstance: the journal never grows.
	d.Instances = append(d.Instances, &netlist.Instance{
		ID: len(d.Instances), Name: "smuggled", Master: lib12.Smallest(cell.FuncInv),
	})
	v := assertFires(t, Run(in, ClassENG), "ENG-001")
	if !strings.Contains(v.Msg, "journal covers") {
		t.Fatalf("finding = %+v", v)
	}
}

func TestENG001IDMismatch(t *testing.T) {
	d, in := chain(t, 2)
	d.Nets[0].ID = 99
	rep := Run(in, ClassENG)
	found := false
	for _, v := range byRule(rep, "ENG-001") {
		if strings.Contains(v.Msg, "does not match its index") {
			found = true
		}
	}
	if !found {
		t.Fatalf("ID-mismatch finding missing: %v", rep.Violations)
	}
	d.Nets[0].ID = 0
}

func TestENG002LevelizationLoop(t *testing.T) {
	d, _ := chain(t, 2)
	a, _ := d.AddInstance("la", lib12.Smallest(cell.FuncInv))
	b, _ := d.AddInstance("lb", lib12.Smallest(cell.FuncInv))
	n1, _ := d.AddNet("ln1")
	n2, _ := d.AddNet("ln2")
	for _, c := range []struct {
		i   *netlist.Instance
		pin string
		n   *netlist.Net
	}{{a, "Y", n1}, {b, "A", n1}, {b, "Y", n2}, {a, "A", n2}} {
		if err := d.Connect(c.i, c.pin, c.n); err != nil {
			t.Fatal(err)
		}
	}
	v := assertFires(t, Run(Input{Design: d}, ClassENG), "ENG-002")
	if v.Obj != "design" {
		t.Fatalf("finding = %+v", v)
	}

	// A loop through a register-fed cell: the NAND2 reads ff0's Q and the
	// inverter it drives itself. Both the engine's levelizer (ENG-002)
	// and the independent loop detector (ERC-008) must reject it.
	d, _ = chain(t, 2)
	nand, _ := d.AddInstance("rn", lib12.Smallest(cell.FuncNand2))
	inv, _ := d.AddInstance("ri", lib12.Smallest(cell.FuncInv))
	y, _ := d.AddNet("ry")
	fb, _ := d.AddNet("rfb")
	for _, c := range []struct {
		i   *netlist.Instance
		pin string
		n   *netlist.Net
	}{{nand, "A", d.Net("q0")}, {nand, "B", fb}, {nand, "Y", y}, {inv, "A", y}, {inv, "Y", fb}} {
		if err := d.Connect(c.i, c.pin, c.n); err != nil {
			t.Fatal(err)
		}
	}
	assertFires(t, Run(Input{Design: d}, ClassENG), "ENG-002")
	assertFires(t, Run(Input{Design: d}, ClassERC), "ERC-008")
}

func TestENG003RevisionMonotonicity(t *testing.T) {
	big, inBig := chain(t, 6)
	var s Session
	if rep := s.Run("legalize", inBig, ClassENG); rep.Count(Info) != 0 {
		t.Fatalf("first boundary dirty: %v", rep.Violations)
	}
	_ = big
	// A smaller design behind the same session: counts and revision went
	// backwards — the "engine reads a stale view" hazard.
	small, inSmall := chain(t, 1)
	_ = small
	rep := s.Run("cts", inSmall, ClassENG)
	vs := byRule(rep, "ENG-003")
	if len(vs) == 0 {
		t.Fatalf("ENG-003 did not fire: %v", rep.Violations)
	}
	if rep.Stage != "cts" || len(s.Reports()) != 2 {
		t.Fatalf("session bookkeeping: stage=%q reports=%d", rep.Stage, len(s.Reports()))
	}
}

func TestSessionMonotonicCleanAcrossGrowth(t *testing.T) {
	d, in := chain(t, 3)
	var s Session
	if rep := s.Run("legalize", in, ClassAll); rep.Count(Info) != 0 {
		t.Fatalf("boundary 1: %v", rep.Violations)
	}
	// Legal growth: an ECO buffer between the boundaries.
	h := lib12.Variant.CellHeight
	nb, _, err := d.InsertBuffer(d.Net("q0"), []netlist.PinRef{d.Net("q0").Sinks[0]},
		lib12.Smallest(cell.FuncBuf), "eco_buf")
	if err != nil {
		t.Fatal(err)
	}
	nb.SetLoc(geom.Pt(14, h/2*3))
	if rep := s.Run("signoff", in, ClassAll); rep.Count(Info) != 0 {
		t.Fatalf("boundary 2: %v", rep.Violations)
	}
}

func TestViolationCapKeepsFullCounts(t *testing.T) {
	d, in := chain(t, 2)
	for i := 0; i < MaxPerRule+15; i++ {
		if _, err := d.AddNet("orphan" + string(rune('a'+i%26)) + string(rune('a'+i/26))); err != nil {
			t.Fatal(err)
		}
	}
	rep := Run(in, ClassERC)
	st := ruleStat(t, rep, "ERC-001")
	if st.Violations != MaxPerRule+15 {
		t.Fatalf("stat count = %d, want %d", st.Violations, MaxPerRule+15)
	}
	if got := len(byRule(rep, "ERC-001")); got != MaxPerRule {
		t.Fatalf("retained findings = %d, want cap %d", got, MaxPerRule)
	}
	if rep.Count(Warning) != MaxPerRule+15 {
		t.Fatalf("Count(Warning) = %d", rep.Count(Warning))
	}
	if err := rep.Err(Warning); err == nil || !strings.Contains(err.Error(), "total") {
		t.Fatalf("Err = %v", err)
	}
	if err := rep.Err(Error); err != nil {
		t.Fatalf("Err(Error) should be clean for warnings: %v", err)
	}
}

func TestCatalogSanity(t *testing.T) {
	rules := Rules()
	if len(rules) == 0 {
		t.Fatal("empty catalog")
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if r.ID == "" || r.Title == "" || r.Doc == "" {
			t.Errorf("rule %+v incomplete", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Class != ClassERC && r.Class != ClassDRC && r.Class != ClassTDR && r.Class != ClassENG {
			t.Errorf("rule %s has composite class %v", r.ID, r.Class)
		}
	}
	// Class selection: ERC-only run must not include DRC stats.
	_, in := chain(t, 1)
	rep := Run(in, ClassERC)
	for _, s := range rep.Stats {
		if !strings.HasPrefix(s.ID, "ERC-") {
			t.Errorf("ClassERC run contains %s", s.ID)
		}
	}
}

func TestSeverityAndClassStrings(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Error.String() != "error" {
		t.Error("severity strings")
	}
	if ClassAll.String() != "ERC|DRC|TDR|ENG" || Class(0).String() != "none" {
		t.Errorf("class strings: %q %q", ClassAll, Class(0))
	}
	v := Violation{Rule: "ERC-001", Severity: Warning, Obj: "n1", Msg: "dangling"}
	if v.String() != "ERC-001 [warning] n1: dangling" {
		t.Errorf("violation string = %q", v)
	}
}

func TestRunNilDesign(t *testing.T) {
	rep := Run(Input{}, ClassAll)
	if rep.Count(Info) != 0 || rep.Checked() != 0 {
		t.Fatalf("nil-design report not empty: %+v", rep)
	}
}
