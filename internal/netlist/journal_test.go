package netlist

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/tech"
)

// journalDesign builds inv(a) → mid → inv(b) → out with an input port on a.
func journalDesign(t *testing.T) (*Design, *Instance, *Instance, *Net) {
	t.Helper()
	lib := cell.NewLibrary(tech.Variant12T())
	d := New("jrnl")
	a, _ := d.AddNet("a")
	if _, err := d.AddPort("a", cell.DirIn, a); err != nil {
		t.Fatal(err)
	}
	mid, _ := d.AddNet("mid")
	out, _ := d.AddNet("out")
	i1, err := d.AddInstance("i1", lib.Smallest(cell.FuncInv))
	if err != nil {
		t.Fatal(err)
	}
	i2, err := d.AddInstance("i2", lib.Smallest(cell.FuncInv))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		inst *Instance
		pin  string
		n    *Net
	}{{i1, "A", a}, {i1, "Y", mid}, {i2, "A", mid}, {i2, "Y", out}} {
		if err := d.Connect(c.inst, c.pin, c.n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AddPort("out", cell.DirOut, out); err != nil {
		t.Fatal(err)
	}
	return d, i1, i2, mid
}

func TestJournalRevisions(t *testing.T) {
	d, i1, i2, mid := journalDesign(t)
	lib := cell.NewLibrary(tech.Variant12T())

	topo0 := d.TopoRev()
	if topo0 == 0 {
		t.Fatal("construction should have moved the topo revision")
	}

	// Master swap: instance revision moves, net revisions do not — wire
	// geometry is untouched, so RC caches must stay valid.
	midRev, i1Rev := d.NetRev(mid), d.InstRev(i1)
	up := lib.NextDriveUp(i1.Master)
	if up == nil {
		t.Fatal("no drive-up for smallest inverter")
	}
	if err := d.ReplaceMaster(i1, up); err != nil {
		t.Fatal(err)
	}
	if d.InstRev(i1) != i1Rev+1 {
		t.Errorf("InstRev after ReplaceMaster = %d, want %d", d.InstRev(i1), i1Rev+1)
	}
	if d.NetRev(mid) != midRev {
		t.Errorf("NetRev moved on ReplaceMaster: %d → %d", midRev, d.NetRev(mid))
	}
	if d.TopoRev() != topo0 {
		t.Errorf("TopoRev moved on ReplaceMaster")
	}

	// Move: every connected net's revision moves.
	aRev := d.NetRev(d.Net("a"))
	midRev = d.NetRev(mid)
	i1.SetLoc(geom.Pt(5, 7))
	if d.NetRev(mid) != midRev+1 || d.NetRev(d.Net("a")) != aRev+1 {
		t.Errorf("connected net revisions did not move on SetLoc")
	}
	// Repeating the identical location is a no-op.
	midRev = d.NetRev(mid)
	i1.SetLoc(geom.Pt(5, 7))
	if d.NetRev(mid) != midRev {
		t.Errorf("identical SetLoc bumped NetRev")
	}

	// Tier change bumps the same footprint.
	midRev = d.NetRev(mid)
	i2.SetTier(tech.TierTop)
	if d.NetRev(mid) != midRev+1 {
		t.Errorf("SetTier did not bump connected net revision")
	}
	i2.SetTier(tech.TierTop) // no-op
	if d.NetRev(mid) != midRev+1 {
		t.Errorf("identical SetTier bumped NetRev")
	}

	// Buffer insertion is structural and rewires both nets.
	topo1 := d.TopoRev()
	outRev := d.NetRev(d.Net("out"))
	if _, _, err := d.InsertBuffer(d.Net("out"), d.Net("out").Sinks[:0], lib.Smallest(cell.FuncBuf), "b0"); err == nil {
		t.Fatal("InsertBuffer with no sinks should fail")
	}
	mid2 := d.Net("mid")
	if _, _, err := d.InsertBuffer(mid2, append([]PinRef{}, mid2.Sinks...), lib.Smallest(cell.FuncBuf), "b1"); err != nil {
		t.Fatal(err)
	}
	if d.TopoRev() == topo1 {
		t.Errorf("TopoRev did not move on InsertBuffer")
	}
	if d.NetRev(mid2) == midRev+1 {
		t.Errorf("split net revision did not move on InsertBuffer")
	}
	_ = outRev
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalCloneIndependence(t *testing.T) {
	d, i1, _, mid := journalDesign(t)
	c, err := d.CloneMapped(func(m *cell.Master) (*cell.Master, error) { return m, nil })
	if err != nil {
		t.Fatal(err)
	}
	// The clone's instances must journal into the clone, leaving the
	// original's revisions untouched.
	topo, instRev, netRev := d.TopoRev(), d.InstRev(i1), d.NetRev(mid)
	ci := c.Instance("i1")
	rev := c.InstRev(ci)
	ci.SetLoc(geom.Pt(3, 3))
	if c.InstRev(ci) != rev+1 {
		t.Errorf("clone mutation did not bump the clone's revision")
	}
	if d.TopoRev() != topo || d.InstRev(i1) != instRev || d.NetRev(mid) != netRev {
		t.Errorf("clone mutation moved the original's revisions")
	}
}

func TestCorruptAndReconcile(t *testing.T) {
	d, i1, _, mid := journalDesign(t)
	before := d.TopoRev()
	if got := d.CorruptTopoRev(2); got != before-2 {
		t.Fatalf("CorruptTopoRev: rev = %d, want %d", got, before-2)
	}

	netRev, instRev := d.NetRev(mid), d.InstRev(i1)
	d.Reconcile()
	// The repaired revision must be strictly past every value handed out
	// before the rewind, so any engine view keyed on an old revision reads
	// as stale.
	if d.TopoRev() <= before {
		t.Fatalf("Reconcile left TopoRev at %d, want > %d", d.TopoRev(), before)
	}
	if d.NetRev(mid) <= netRev || d.InstRev(i1) <= instRev {
		t.Fatal("Reconcile did not bump per-net/per-instance revisions")
	}

	// Rewinding past zero clamps.
	if got := d.CorruptTopoRev(1 << 40); got != 0 {
		t.Fatalf("clamped rewind: rev = %d, want 0", got)
	}
}
