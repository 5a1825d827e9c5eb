package route

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// slowExtractor wraps an Extractor, counting underlying extractions and
// widening the race window so concurrent misses on the same revision
// reliably overlap — the singleflight path must collapse them to one.
type slowExtractor struct {
	inner Extractor
	calls atomic.Int64
	delay time.Duration
}

func (s *slowExtractor) Extract(n *netlist.Net) *NetRC {
	s.calls.Add(1)
	time.Sleep(s.delay)
	return s.inner.Extract(n)
}

// TestCacheConcurrentSameRevision hammers one net at one revision from
// many goroutines: exactly one underlying extraction may run, every
// caller must receive the same *NetRC, and the remaining lookups must be
// accounted as hits or coalesced waits. Run under -race this is also the
// data-race check for the fill path.
func TestCacheConcurrentSameRevision(t *testing.T) {
	d, mid := cacheDesign(t)
	slow := &slowExtractor{inner: New(), delay: 2 * time.Millisecond}
	c := NewCache(slow, d)

	const goroutines = 32
	rcs := make([]*NetRC, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer done.Done()
			start.Wait()
			rcs[g] = c.Extract(mid)
		}()
	}
	start.Done()
	done.Wait()

	if n := slow.calls.Load(); n != 1 {
		t.Errorf("underlying extractor ran %d times, want exactly 1 (singleflight)", n)
	}
	for g := 1; g < goroutines; g++ {
		if rcs[g] != rcs[0] {
			t.Fatalf("goroutine %d received a different *NetRC", g)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("Misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Coalesced != goroutines-1 {
		t.Errorf("Hits+Coalesced = %d+%d, want %d", s.Hits, s.Coalesced, goroutines-1)
	}
}

// TestCacheConcurrentAcrossRevisions interleaves hammer rounds with
// journaled moves: each revision must trigger exactly one underlying
// extraction no matter how many goroutines race the fill.
func TestCacheConcurrentAcrossRevisions(t *testing.T) {
	d, mid := cacheDesign(t)
	slow := &slowExtractor{inner: New(), delay: time.Millisecond}
	c := NewCache(slow, d)

	const goroutines = 16
	const revisions = 5
	for rev := 0; rev < revisions; rev++ {
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(goroutines)
		rcs := make([]*NetRC, goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			go func() {
				defer done.Done()
				start.Wait()
				rcs[g] = c.Extract(mid)
			}()
		}
		start.Done()
		done.Wait()
		for g := 1; g < goroutines; g++ {
			if rcs[g] != rcs[0] {
				t.Fatalf("revision %d: goroutine %d received a different *NetRC", rev, g)
			}
		}
		if n := slow.calls.Load(); n != int64(rev+1) {
			t.Fatalf("after revision %d: %d underlying extractions, want %d", rev, n, rev+1)
		}
		// Journaled move: the next round extracts at a fresh revision.
		d.Instance("i2").SetLoc(geom.Pt(float64(25+5*rev), float64(5*rev)))
	}
	s := c.Stats()
	if s.Misses != revisions {
		t.Errorf("Misses = %d, want %d", s.Misses, revisions)
	}
	if got, want := s.Hits+s.Coalesced, int64(revisions*(goroutines-1)); got != want {
		t.Errorf("Hits+Coalesced = %d, want %d", got, want)
	}
}

// TestCacheConcurrentDistinctNets fans out over different nets at once —
// the common shape of the timing engine's parallel extraction — and
// checks every net extracts exactly once.
func TestCacheConcurrentDistinctNets(t *testing.T) {
	d, _ := cacheDesign(t)
	slow := &slowExtractor{inner: New(), delay: time.Millisecond}
	c := NewCache(slow, d)

	nets := d.Nets
	const rounds = 8
	var done sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, n := range nets {
			n := n
			done.Add(1)
			go func() {
				defer done.Done()
				if rc := c.Extract(n); rc == nil {
					t.Error("nil RC from concurrent extract")
				}
			}()
		}
	}
	done.Wait()
	if n := slow.calls.Load(); n != int64(len(nets)) {
		t.Errorf("underlying extractions = %d, want one per net (%d)", n, len(nets))
	}
}

// TestCacheInvalidateDuringFlight pins the generation contract: an
// extraction in flight when Invalidate lands completes and serves its
// waiters, but must not re-validate its entry — the next lookup
// re-extracts.
func TestCacheInvalidateDuringFlight(t *testing.T) {
	d, mid := cacheDesign(t)
	gate := make(chan struct{})
	entered := make(chan struct{})
	inner := New()
	var first sync.Once
	c := NewCache(extractFunc(func(n *netlist.Net) *NetRC {
		// Only the first fill is gated; the post-Invalidate refill runs
		// straight through.
		first.Do(func() {
			close(entered)
			<-gate
		})
		return inner.Extract(n)
	}), d)

	var flightRC *NetRC
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		flightRC = c.Extract(mid)
	}()
	<-entered
	c.Invalidate() // lands while the fill is in flight
	close(gate)
	done.Wait()

	if flightRC == nil {
		t.Fatal("in-flight extraction returned nil")
	}
	if got := c.Extract(mid); got == flightRC {
		t.Error("entry filled by a pre-Invalidate flight was served after Invalidate")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("Misses = %d, want 2 (flight + post-Invalidate refill)", s.Misses)
	}
}

// extractFunc adapts a function to the Extractor interface for test
// doubles.
type extractFunc func(*netlist.Net) *NetRC

func (f extractFunc) Extract(n *netlist.Net) *NetRC { return f(n) }
