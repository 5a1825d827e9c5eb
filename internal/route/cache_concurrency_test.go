package route

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
)

// countingExtractor wraps an Extractor and counts underlying
// extractions; the fan-outs below call it from many goroutines at once.
type countingExtractor struct {
	inner Extractor
	calls atomic.Int64
}

func (s *countingExtractor) Extract(n *netlist.Net) *NetRC {
	s.calls.Add(1)
	return s.inner.Extract(n)
}

// chainDesign builds a placed chain of n inverters, in → i0 → … → out:
// n+1 nets, enough for a fan-out to split across workers.
func chainDesign(t *testing.T, n int) *netlist.Design {
	t.Helper()
	d := netlist.New("chain")
	prev, _ := d.AddNet("in")
	if _, err := d.AddPort("in", cell.DirIn, prev); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		inst, err := d.AddInstance(fmt.Sprintf("i%d", i), lib.Smallest(cell.FuncInv))
		if err != nil {
			t.Fatal(err)
		}
		next, _ := d.AddNet(fmt.Sprintf("n%d", i))
		if err := d.Connect(inst, "A", prev); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(inst, "Y", next); err != nil {
			t.Fatal(err)
		}
		inst.Loc = geom.Pt(float64(7*i), float64(3*(i%5)))
		prev = next
	}
	if _, err := d.AddPort("out", cell.DirOut, prev); err != nil {
		t.Fatal(err)
	}
	return d
}

// fill is the timing engine's fan-out shape: size the slots serially,
// then extract every net from exactly one work item.
func fill(c *Cache, d *netlist.Design) {
	c.Grow()
	par.ParallelFor(4, len(d.Nets), func(i int) { c.Extract(d.Nets[i]) })
}

// TestCacheConcurrentDistinctNets fans out over every net at once — the
// timing engine's parallel fill — round after round: each net extracts
// exactly once, later rounds are all hits, and every slot serves what a
// serial extraction would. Run under -race this is the data-race check
// for the lock-free slots.
func TestCacheConcurrentDistinctNets(t *testing.T) {
	d := chainDesign(t, 64)
	ce := &countingExtractor{inner: New()}
	c := NewCache(ce, d)

	const rounds = 8
	for r := 0; r < rounds; r++ {
		fill(c, d)
	}
	nets := int64(len(d.Nets))
	if n := ce.calls.Load(); n != nets {
		t.Errorf("underlying extractions = %d, want one per net (%d)", n, nets)
	}
	if s := c.Stats(); s.Misses != nets || s.Hits != (rounds-1)*nets {
		t.Errorf("stats = %+v, want %d misses and %d hits", s, nets, (rounds-1)*nets)
	}
	r := New()
	for _, n := range d.Nets {
		if !rcEqual(c.Extract(n), r.Extract(n)) {
			t.Fatalf("net %s: filled slot differs from a serial extraction", n.Name)
		}
	}
}

// TestCacheConcurrentAcrossRevisions interleaves fan-out fills with
// journaled moves: each fill re-extracts exactly the nets whose revision
// moved, once each, and serves every other net from its slot.
func TestCacheConcurrentAcrossRevisions(t *testing.T) {
	d := chainDesign(t, 64)
	ce := &countingExtractor{inner: New()}
	c := NewCache(ce, d)
	fill(c, d)

	const revisions = 5
	for rev := 0; rev < revisions; rev++ {
		// Moving one inverter moves its input and output nets.
		inst := d.Instance(fmt.Sprintf("i%d", 10*rev))
		inst.SetLoc(geom.Pt(inst.Loc.X+5, inst.Loc.Y+2))
		before, calls := c.Stats(), ce.calls.Load()
		fill(c, d)
		after := c.Stats()
		if got := ce.calls.Load() - calls; got != 2 {
			t.Fatalf("revision %d: %d underlying extractions, want 2", rev, got)
		}
		if got := after.Misses - before.Misses; got != 2 {
			t.Errorf("revision %d: %d misses, want 2", rev, got)
		}
		if got, want := after.Hits-before.Hits, int64(len(d.Nets)-2); got != want {
			t.Errorf("revision %d: %d hits, want %d", rev, got, want)
		}
	}
}

// extractFunc adapts a function to the Extractor interface for test
// doubles.
type extractFunc func(*netlist.Net) *NetRC

func (f extractFunc) Extract(n *netlist.Net) *NetRC { return f(n) }
