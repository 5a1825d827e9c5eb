package route

import (
	"errors"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// cacheDesign builds inv(a) → mid → {inv(b), inv(c)} with placed cells so
// geometric extraction produces non-trivial RC.
func cacheDesign(t *testing.T) (*netlist.Design, *netlist.Net) {
	t.Helper()
	d := netlist.New("cache")
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
	i3, err := d.AddInstance("i3", lib.Smallest(cell.FuncInv))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		inst *netlist.Instance
		pin  string
		n    *netlist.Net
	}{{i1, "A", a}, {i1, "Y", mid}, {i2, "A", mid}, {i2, "Y", out}, {i3, "A", mid}} {
		if err := d.Connect(c.inst, c.pin, c.n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AddPort("out", cell.DirOut, out); err != nil {
		t.Fatal(err)
	}
	i1.Loc, i2.Loc, i3.Loc = geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(0, 15)
	return d, mid
}

func TestCacheHitMissInvalidate(t *testing.T) {
	d, mid := cacheDesign(t)
	r := New()
	c := NewCache(r, d)

	rc1 := c.Extract(mid)
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first lookup stats = %+v, want 0 hits 1 miss", s)
	}
	rc2 := c.Extract(mid)
	if rc1 != rc2 {
		t.Errorf("second lookup returned a different pointer")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("after second lookup stats = %+v, want 1 hit 1 miss", s)
	}
	if !rcEqual(rc1, r.Extract(mid)) {
		t.Errorf("cached RC differs from direct extraction")
	}

	// Moving a connected instance must invalidate the entry and re-extract
	// to the same values a raw router would produce.
	d.Instance("i2").SetLoc(geom.Pt(40, 10))
	rc3 := c.Extract(mid)
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("SetLoc did not invalidate: stats = %+v", s)
	}
	if rcEqual(rc3, rc1) {
		t.Errorf("RC unchanged after a real move")
	}
	if !rcEqual(rc3, r.Extract(mid)) {
		t.Errorf("post-move cached RC differs from direct extraction")
	}

	// A tier flip also moves the net revision.
	d.Instance("i3").SetTier(tech.TierTop)
	c.Extract(mid)
	if s := c.Stats(); s.Misses != 3 {
		t.Errorf("SetTier did not invalidate: stats = %+v", s)
	}

	// Explicit Invalidate drops everything.
	c.Invalidate()
	c.Extract(mid)
	if s := c.Stats(); s.Misses != 4 {
		t.Errorf("Invalidate did not drop entries: stats = %+v", s)
	}
}

func TestCacheWarmAcrossResize(t *testing.T) {
	d, mid := cacheDesign(t)
	c := NewCache(New(), d)
	rc1 := c.Extract(mid)

	// Gate sizing swaps masters without touching wire geometry: the whole
	// repair loop must run on warm entries.
	i2 := d.Instance("i2")
	up := lib.NextDriveUp(i2.Master)
	if up == nil {
		t.Fatal("no drive-up master")
	}
	if err := d.ReplaceMaster(i2, up); err != nil {
		t.Fatal(err)
	}
	if rc2 := c.Extract(mid); rc2 != rc1 {
		t.Errorf("ReplaceMaster invalidated the RC entry")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats after resize = %+v, want 1 hit 1 miss", s)
	}
}

func TestCacheGrowsWithNewNets(t *testing.T) {
	d, mid := cacheDesign(t)
	c := NewCache(New(), d)
	c.Extract(mid)

	// Structural edits append nets; the cache must grow and serve them.
	_, nn, err := d.InsertBuffer(mid, append([]netlist.PinRef{}, mid.Sinks...), lib.Smallest(cell.FuncBuf), "b0")
	if err != nil {
		t.Fatal(err)
	}
	rc := c.Extract(nn)
	if rc == nil || len(rc.SinkR) != len(nn.Sinks) {
		t.Fatalf("cache failed on appended net: %+v", rc)
	}
	// The split net was journaled, so its entry re-extracts.
	before := c.Stats().Misses
	c.Extract(mid)
	if c.Stats().Misses != before+1 {
		t.Errorf("split net served stale RC after InsertBuffer")
	}
}

func TestCacheAuditCleanAndPoisoned(t *testing.T) {
	d, mid := cacheDesign(t)
	c := NewCache(New(), d)
	c.Extract(mid)

	if err := c.Audit(); err != nil {
		t.Fatalf("audit of a clean cache: %v", err)
	}

	// Poison keeps journal revisions, so ordinary lookups keep hitting the
	// corrupted entry — only Audit can see the divergence.
	if n := c.Poison(42); n != 1 {
		t.Fatalf("Poison corrupted %d entries, want 1", n)
	}
	hitsBefore := c.Stats().Hits
	c.Extract(mid)
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatal("poisoned entry missed: corruption must stay revision-valid")
	}
	err := c.Audit()
	var corrupt *ErrCorrupted
	if err == nil || !errors.As(err, &corrupt) {
		t.Fatalf("audit of a poisoned cache: got %v, want *ErrCorrupted", err)
	}
	if corrupt.Net != "mid" {
		t.Errorf("corrupted net = %q, want mid", corrupt.Net)
	}

	// Invalidate + re-extract is the recovery path: audit must come back
	// clean afterwards.
	c.Invalidate()
	c.Extract(mid)
	if err := c.Audit(); err != nil {
		t.Fatalf("audit after recovery: %v", err)
	}
}

func TestPoisonDeterministic(t *testing.T) {
	build := func() *Cache {
		d, mid := cacheDesign(t)
		c := NewCache(New(), d)
		c.Extract(mid)
		c.Poison(7)
		return c
	}
	a, b := build(), build()
	for i := range a.slots {
		if a.slots[i].valid != b.slots[i].valid {
			t.Fatalf("slot %d validity differs", i)
		}
		if a.slots[i].valid && !rcEqual(a.slots[i].rc, b.slots[i].rc) {
			t.Fatalf("slot %d: same seed produced different poison", i)
		}
	}
}

// TestCacheWiring pins the uncounted read sign-off's wirelength and MIV
// sums use: a current slot answers with the router's own per-net values
// (the net spans both tiers, so the MIV count is live), a never-filled
// or stale slot answers nothing, and no read moves the hit/miss
// counters.
func TestCacheWiring(t *testing.T) {
	d, mid := cacheDesign(t)
	mid.Sinks[0].Inst.SetTier(tech.TierTop)
	r := New()
	c := NewCache(r, d)
	if _, _, ok := c.Wiring(mid); ok {
		t.Fatal("an empty store answered")
	}
	c.Extract(mid)
	before := c.Stats()
	wl, mivs, ok := c.Wiring(mid)
	if !ok || wl != r.NetWirelength(mid) || mivs != r.CountMIVs(mid) || mivs == 0 {
		t.Fatalf("Wiring = %v, %d, %v; router says %v, %d", wl, mivs, ok, r.NetWirelength(mid), r.CountMIVs(mid))
	}
	mid.Sinks[1].Inst.SetLoc(geom.Pt(30, 30))
	if _, _, ok := c.Wiring(mid); ok {
		t.Fatal("a stale slot answered")
	}
	if s := c.Stats(); s != before {
		t.Fatalf("Wiring moved the counters: %+v → %+v", before, s)
	}
}
