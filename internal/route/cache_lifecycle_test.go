package route

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// TestCacheRecyclesReplaced pins the store's ownership rule: the RC a
// re-extraction replaces goes back to the free list when the inner
// extractor is a pool-backed *Router, and never when it is any other
// extractor, whose results may be shared storage.
func TestCacheRecyclesReplaced(t *testing.T) {
	d, mid := cacheDesign(t)
	r := New()
	other := d.Net("out")

	// A foreign extractor's result is never handed to the free list.
	held := r.Extract(mid)
	fc := NewCache(extractFunc(func(*netlist.Net) *NetRC { return held }), d)
	fc.Extract(mid)
	d.Instance("i2").SetLoc(geom.Pt(30, 5))
	fc.Extract(mid)
	for i := 0; i < 64; i++ {
		rc := r.Extract(other)
		if rc == held {
			t.Fatal("the store recycled a result of a non-pooled extractor")
		}
		RecycleRC(rc)
	}

	if raceEnabled {
		t.Skip("race detector: sync.Pool drops cached items, so a recycled shell need not come back")
	}
	// The store's own replaced RC comes back from the free list: the
	// next extraction on this goroutine draws it.
	c := NewCache(r, d)
	for try := 0; try < 8; try++ {
		old := c.Extract(mid)
		d.Instance("i2").SetLoc(geom.Pt(31+float64(try), 5))
		if fresh := c.Extract(mid); fresh == old {
			t.Fatal("moved net served its old slot")
		}
		rc := r.Extract(other)
		RecycleRC(rc)
		if rc == old {
			return
		}
	}
	t.Fatal("the RC a re-extraction replaced never returned to the free list")
}

// TestCacheFork pins the fork's sharing rule: a fork starts with the
// source's slots as hits (the same RCs, zero counters) on the source
// design's exact copy, and re-extracting a moved net on either side
// replaces the slot without recycling the shared RC or writing to it.
func TestCacheFork(t *testing.T) {
	d, mid := cacheDesign(t)
	r := New()
	base := NewCache(r, d)
	held := base.Extract(mid)
	want := *held
	want.SinkR = append([]float64(nil), held.SinkR...)
	want.SinkCapShare = append([]float64(nil), held.SinkCapShare...)

	c := d.Clone()
	f := base.Fork(c)
	if s := f.Stats(); s != (CacheStats{}) {
		t.Fatalf("fork starts with counters %+v, want zero", s)
	}
	if got := f.Extract(c.Net("mid")); got != held {
		t.Fatal("fork does not serve the source's extraction at the same revision")
	}
	if s := f.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("fork counters %+v after one lookup, want one hit", s)
	}

	// The fork and then the source re-extract the net; neither hands
	// the shared RC to the free list.
	c.Instance("i2").SetLoc(geom.Pt(30, 5))
	if f.Extract(c.Net("mid")) == held {
		t.Fatal("fork served a stale extraction of a moved net")
	}
	d.Instance("i2").SetLoc(geom.Pt(40, 9))
	if base.Extract(mid) == held {
		t.Fatal("source served a stale extraction of a moved net")
	}
	for i := 0; i < 64; i++ {
		rc := r.Extract(d.Net("out"))
		if rc == held {
			t.Fatal("a shared RC went back to the free list")
		}
		RecycleRC(rc)
	}
	if held.WireCap != want.WireCap || held.WireLen != want.WireLen || held.MIVs != want.MIVs ||
		!slices.Equal(held.SinkR, want.SinkR) || !slices.Equal(held.SinkCapShare, want.SinkCapShare) {
		t.Fatal("the shared RC was written after the fork")
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

// TestTotalMIVs checks the design-wide MIV reduction sign-off makes from
// the store: the MIV counts its slots hold, summed in net order, equal
// the router's per-net counts summed, and only the crossing net adds.
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
	c := NewCache(r, d)
	for _, net := range d.Nets {
		c.Extract(net)
	}
	got := 0
	for _, net := range d.Nets {
		_, m, ok := c.Wiring(net)
		if !ok {
			t.Fatalf("net %s: no current slot after extraction", net.Name)
		}
		got += m
	}
	if got != want {
		t.Errorf("store MIV sum = %d, want %d", got, want)
	}
}
