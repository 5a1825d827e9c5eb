package route

import (
	"math"
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
