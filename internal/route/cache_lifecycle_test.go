package route

import (
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/tech"
)

// TestCacheRecycleRefusesPublished pins Recycle's one rule: a pointer
// the cache still publishes — the current entry, or any pointer while
// the net has an extraction in flight — is never handed back to the
// free list, so no later extraction can be built into it.
func TestCacheRecycleRefusesPublished(t *testing.T) {
	d, mid := cacheDesign(t)
	r := New()
	c := NewCache(r, d)
	c.Recycle(mid, nil) // no-op

	live := c.Extract(mid)
	want := *live
	c.Recycle(mid, live)
	// Had the shell gone back to the free list, these extractions (same
	// goroutine, same P) would be the first to draw it.
	other := d.Net("out")
	for i := 0; i < 64; i++ {
		rc := r.Extract(other)
		if rc == live {
			t.Fatal("a published cache entry was recycled into a fresh extraction")
		}
		RecycleRC(rc)
	}
	if got := c.Extract(mid); got != live || got.WireLen != want.WireLen || got.WireCap != want.WireCap {
		t.Fatalf("entry changed after a refused Recycle: %+v, want %+v", got, want)
	}

	// While a fill is in flight, every pointer for the net is treated as
	// published: the flight may be about to store it.
	gate, entered := make(chan struct{}), make(chan struct{})
	held := r.Extract(mid)
	fc := NewCache(extractFunc(func(n *netlist.Net) *NetRC {
		close(entered)
		<-gate
		return held
	}), d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fc.Extract(mid)
	}()
	<-entered
	fc.Recycle(mid, held)
	close(gate)
	wg.Wait()
	for i := 0; i < 64; i++ {
		rc := r.Extract(other)
		if rc == held {
			t.Fatal("Recycle during a flight released the pointer the flight stored")
		}
		RecycleRC(rc)
	}
	if got := fc.Extract(mid); got != held {
		t.Fatalf("flight result not served: %p, want %p", got, held)
	}

	// A replaced pointer is private to the caller again: Recycle takes
	// it (nothing to observe beyond the entry staying intact).
	d.Instance("i2").SetLoc(geom.Pt(30, 5))
	fresh := c.Extract(mid)
	if fresh == live {
		t.Fatal("moved net served its old entry")
	}
	c.Recycle(mid, live)
	if got := c.Extract(mid); got != fresh {
		t.Fatal("recycling a stale pointer disturbed the current entry")
	}
}

// TestCacheExportRestore moves warm entries across a save/load
// boundary: a restored cache serves the exported pointers as hits,
// re-extracts nets whose revision moved since, omits invalidated
// entries from an export, and refuses entries it cannot place.
func TestCacheExportRestore(t *testing.T) {
	d, mid := cacheDesign(t)
	c := NewCache(New(), d)
	if got := c.Export(); len(got) != 0 {
		t.Fatalf("cold cache exported %d entries", len(got))
	}
	for _, n := range d.Nets {
		c.Extract(n)
	}
	exp := c.Export()
	if len(exp) != len(d.Nets) {
		t.Fatalf("exported %d entries, want %d", len(exp), len(d.Nets))
	}
	for i, e := range exp {
		if e.Net != i || e.RC == nil || e.Rev != d.NetRev(d.Nets[i]) {
			t.Fatalf("entry %d = %+v, want net %d at revision %d", i, e, i, d.NetRev(d.Nets[i]))
		}
	}

	rc := NewCache(New(), d)
	if err := rc.Restore(exp); err != nil {
		t.Fatal(err)
	}
	for i, n := range d.Nets {
		if got := rc.Extract(n); got != exp[i].RC {
			t.Fatalf("net %s: restored cache re-extracted instead of serving the export", n.Name)
		}
	}
	if s := rc.Stats(); s.Misses != 0 || s.Hits != int64(len(d.Nets)) {
		t.Fatalf("restored stats = %+v, want %d hits and no misses", s, len(d.Nets))
	}

	// A net that moved after the export re-extracts on the restored side.
	d.Instance("i2").SetLoc(geom.Pt(40, 3))
	moved := NewCache(New(), d)
	if err := moved.Restore(exp); err != nil {
		t.Fatal(err)
	}
	if got := moved.Extract(mid); got == exp[mid.ID].RC {
		t.Error("restored entry served across a revision move")
	}

	c.Invalidate()
	if got := c.Export(); len(got) != 0 {
		t.Errorf("invalidated cache exported %d entries", len(got))
	}

	bad := NewCache(New(), d)
	if err := bad.Restore([]CacheEntry{{Net: len(d.Nets), RC: &NetRC{}}}); err == nil {
		t.Error("restore accepted a net ID past the design")
	}
	if err := bad.Restore([]CacheEntry{{Net: -1, RC: &NetRC{}}}); err == nil {
		t.Error("restore accepted a negative net ID")
	}
	if err := bad.Restore([]CacheEntry{{Net: mid.ID}}); err == nil {
		t.Error("restore accepted an entry without an RC")
	}
}

// TestExtractWLM checks the pre-placement wire-load model against its
// definition: every sink (instance pins and output ports alike) adds
// WLMPerSinkFF of wire capacitance and the resistance of the wire length
// that capacitance implies, whatever the geometry, and no MIVs.
func TestExtractWLM(t *testing.T) {
	d, mid := cacheDesign(t)
	r := New()
	r.WLMPerSinkFF = 2.5
	perLen := r.WLMPerSinkFF / r.Stack.AvgC()
	near := r.Extract(mid)
	// Moving a sink far away changes nothing in a wire-load model.
	d.Instance("i3").SetLoc(geom.Pt(500, 500))
	far := r.Extract(mid)
	for name, rc := range map[string]*NetRC{"near": near, "far": far} {
		sinks := len(mid.Sinks) + len(mid.SinkPorts)
		if rc.MIVs != 0 || len(rc.SinkR) != sinks || len(rc.SinkCapShare) != sinks {
			t.Fatalf("%s: %+v, want %d sinks and no MIVs", name, rc, sinks)
		}
		if math.Abs(rc.WireCap-2.5*float64(sinks)) > 1e-12 || math.Abs(rc.WireLen-perLen*float64(sinks)) > 1e-12 {
			t.Errorf("%s: WireCap %v WireLen %v, want %v and %v", name, rc.WireCap, rc.WireLen, 2.5*float64(sinks), perLen*float64(sinks))
		}
		for i := range rc.SinkR {
			if math.Abs(rc.SinkR[i]-perLen*r.Stack.AvgR()) > 1e-12 || rc.SinkCapShare[i] != 1.25 {
				t.Errorf("%s sink %d: R %v share %v", name, i, rc.SinkR[i], rc.SinkCapShare[i])
			}
		}
	}
	out := d.Net("out") // driven by i2, one output-port sink
	if rc := r.Extract(out); len(rc.SinkR) != 1 || rc.WireCap != 2.5 {
		t.Errorf("port sink: %+v, want one sink of 2.5 fF", rc)
	}
}

// TestTotalMIVs checks the design-wide MIV reduction: the per-net
// counts summed in net order, the same at any worker count, with its
// fan-out noted.
func TestTotalMIVs(t *testing.T) {
	d, n := buildNet3D(t,
		[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(100, 100), geom.Pt(0, 1)},
		[]tech.Tier{tech.TierBottom, tech.TierTop, tech.TierTop, tech.TierBottom})
	r := New()
	want := 0
	for _, net := range d.Nets {
		want += r.CountMIVs(net)
	}
	if want != r.CountMIVs(n) || want != 2 {
		t.Fatalf("fixture: %d MIVs over the design, want the crossing net's 2", want)
	}
	for _, w := range []int{1, 4} {
		r.Workers = w
		r.Par = &par.Stats{}
		if got := r.TotalMIVs(d); got != want {
			t.Errorf("workers %d: TotalMIVs = %d, want %d", w, got, want)
		}
		if r.Par.Batches != 1 || r.Par.Tasks != int64(len(d.Nets)) {
			t.Errorf("workers %d: fan-out stats %+v, want one batch of %d", w, *r.Par, len(d.Nets))
		}
	}
}
