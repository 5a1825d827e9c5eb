package netlist_test

import (
	"bytes"
	"testing"

	"repro/internal/cell"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// exported is the design's NETL section bytes: every name, binding,
// physical field and journal revision the design database records.
func exported(d *netlist.Design) []byte {
	w := db.NewWriter()
	db.PutNetlist(w, d.ExportState())
	return w.Bytes()
}

// TestClone: Clone is an exact copy — its exported netlist bytes, journal
// included, equal the source's, even after journaled edits moved the
// source's revisions apart — and the copy is independent: mutating it
// moves no revision of the source and leaves the source's bytes as they
// were.
func TestClone(t *testing.T) {
	lib := cell.NewLibrary(tech.Variant12T())
	d, err := designs.Generate(designs.AES, lib, designs.Params{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Journal some history first: moves, a tier flip and a buffer
	// insertion give the revisions distinct values.
	for i, inst := range d.Instances {
		if i%7 == 0 {
			inst.SetLoc(geom.Pt(float64(i%50), float64(i%31)))
		}
	}
	d.Instances[3].SetTier(tech.TierTop)
	var split *netlist.Net
	for _, n := range d.Nets {
		if !n.IsClock && len(n.Sinks) >= 3 {
			split = n
			break
		}
	}
	buf := lib.Smallest(cell.FuncBuf)
	if _, _, err := d.InsertBuffer(split, split.Sinks[:2], buf, "clone_buf"); err != nil {
		t.Fatal(err)
	}

	want := exported(d)
	c := d.Clone()
	if got := exported(c); !bytes.Equal(got, want) {
		t.Fatalf("clone exports %d bytes differing from the source's %d", len(got), len(want))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TopoRev() != d.TopoRev() {
		t.Fatalf("clone topology revision %d, source %d", c.TopoRev(), d.TopoRev())
	}
	for i, inst := range c.Instances {
		if inst == d.Instances[i] || inst.ID != i || c.Instance(inst.Name) != inst {
			t.Fatalf("clone instance %d is not its own object under its own ID and name", i)
		}
	}
	for i, n := range c.Nets {
		if n == d.Nets[i] || c.Net(n.Name) != n {
			t.Fatalf("clone net %d is not its own object under its own name", i)
		}
	}
	for _, p := range c.Ports {
		if c.Port(p.Name) != p || p.Net != c.Nets[p.Net.ID] {
			t.Fatalf("clone port %s does not bind the clone's net", p.Name)
		}
	}

	// Mutations journal into the copy only.
	topo, instRevs, netRevs := d.TopoRev(), append([]uint64(nil), d.InstRevs()...), append([]uint64(nil), d.NetRevs()...)
	for i, inst := range c.Instances {
		switch i % 5 {
		case 0:
			inst.SetLoc(geom.Pt(float64(i%13)+0.5, float64(i%17)+0.25))
		case 1:
			inst.SetTier(tech.TierTop)
		}
	}
	if _, _, err := c.InsertBuffer(c.Nets[split.ID], c.Nets[split.ID].Sinks[:1], buf, "clone_buf2"); err != nil {
		t.Fatal(err)
	}
	if d.TopoRev() != topo {
		t.Errorf("mutating the clone moved the source's topology revision")
	}
	for i, rev := range d.InstRevs() {
		if rev != instRevs[i] {
			t.Fatalf("mutating the clone moved source instance %d's revision", i)
		}
	}
	for i, rev := range d.NetRevs() {
		if rev != netRevs[i] {
			t.Fatalf("mutating the clone moved source net %d's revision", i)
		}
	}
	if !bytes.Equal(exported(d), want) {
		t.Error("mutating the clone changed the source's exported bytes")
	}
	if len(d.Instances) != len(c.Instances)-1 || d.Instance("clone_buf2") != nil {
		t.Error("a structural edit of the clone reached the source")
	}
}
