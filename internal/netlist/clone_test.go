package netlist_test

import (
	"bytes"
	"slices"
	"strings"
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

// TestCloneMapped: the map stage's copy equals an independent reference —
// the source's snapshot with its master list remapped, replayed through
// ImportState — byte for byte, journal included, for every design on
// both libraries, and leaves the source's bytes and revisions as they
// were. Journaled history on the source makes the journal check bite: a
// copy that rebuilt its journal would not match the source's restored one.
func TestCloneMapped(t *testing.T) {
	lib12 := cell.NewLibrary(tech.Variant12T())
	lib9 := cell.NewLibrary(tech.Variant9T())
	for _, name := range designs.All {
		src, err := designs.Generate(name, lib12, designs.Params{Scale: 0.02, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, inst := range src.Instances {
			if i%11 == 0 {
				inst.SetLoc(geom.Pt(float64(i%40), float64(i%23)))
			}
		}
		for _, lib := range []*cell.Library{lib12, lib9} {
			pick := func(m *cell.Master) (*cell.Master, error) {
				if m.Function.IsMacro() {
					return m, nil
				}
				return lib.Equivalent(m)
			}
			before := exported(src)
			topo := src.TopoRev()
			instRevs := append([]uint64(nil), src.InstRevs()...)
			netRevs := append([]uint64(nil), src.NetRevs()...)

			c, err := src.CloneMapped(pick)
			if err != nil {
				t.Fatalf("%s onto %v: %v", name, lib.Variant.Track, err)
			}
			snap := src.ExportState()
			for i, m := range snap.Masters {
				if snap.Masters[i], err = pick(m); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := netlist.ImportState(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(exported(c), exported(ref)) {
				t.Errorf("%s onto %v: mapped copy's bytes differ from the remapped snapshot's", name, lib.Variant.Track)
			}
			if err := c.Validate(); err != nil {
				t.Errorf("%s onto %v: %v", name, lib.Variant.Track, err)
			}
			if !bytes.Equal(exported(src), before) || src.TopoRev() != topo ||
				!slices.Equal(src.InstRevs(), instRevs) || !slices.Equal(src.NetRevs(), netRevs) {
				t.Errorf("%s onto %v: copying moved the source", name, lib.Variant.Track)
			}
		}
	}

	// A substitute with another pin layout is refused, naming the
	// instance, and no copy is returned.
	src, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := src.Instances[0]
	wrong := lib12.Smallest(cell.FuncNand2)
	if len(first.Master.Pins) == len(wrong.Pins) {
		wrong = lib12.Smallest(cell.FuncInv)
	}
	c, err := src.CloneMapped(func(m *cell.Master) (*cell.Master, error) {
		if m == first.Master {
			return wrong, nil
		}
		return m, nil
	})
	if err == nil || c != nil {
		t.Fatalf("pin-layout mismatch: copy %v, err %v; want an error and no copy", c != nil, err)
	}
	if !strings.Contains(err.Error(), first.Name) {
		t.Errorf("pin-layout mismatch error %q does not name instance %s", err, first.Name)
	}
}
