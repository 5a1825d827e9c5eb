package route

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/netlist"
)

// Extractor is the RC-extraction interface timing and power analysis
// consume: Router implements it directly, and Cache wraps any Extractor
// with revision-keyed memoization.
type Extractor interface {
	// Extract returns the lumped RC view of a net. Callers must treat the
	// result as immutable — a caching implementation hands the same
	// pointer to every caller until the net's next re-extraction.
	Extract(n *netlist.Net) *NetRC
}

// CacheStats counts cache effectiveness for the engine-observability
// report.
type CacheStats struct {
	Hits, Misses int64
}

// Cache is a flow's one per-net RC store, keyed on the design's change
// journal: a net's slot is valid exactly while netlist.Design.NetRev is
// unchanged, which the journal guarantees moves whenever the net's pin
// membership or any connected instance's location or tier changes. Gate
// resizes do not move net revisions, so the whole timing-repair sizing
// loop runs on warm slots.
//
// The timing engine reads the slots directly (WireCap, Sink); power
// analysis reads them through Extract. The store takes no lock. Serial
// callers may Extract any net; a parallel fan-out sizes the slots first
// (Grow, serially) and then extracts each net from exactly one work
// item, so every goroutine writes only its own nets' slots. The design
// must be quiescent while a fan-out runs, which the flow's phase
// structure guarantees.
type Cache struct {
	inner Extractor
	d     *netlist.Design
	// pooled marks an inner bare *Router, whose results are private to
	// the store: the RC a re-extraction replaces goes back to the free
	// list. Other extractors may hand out shared storage, so their
	// results are never recycled.
	pooled bool
	// slots is indexed by net ID.
	slots []slot
	// shared is set once the store has been forked: its RCs may now be
	// read by forks, so a re-extraction here recycles nothing.
	shared atomic.Bool
}

// slot is one net's extraction, the journal revision it was taken at,
// and the net's own lookup counters (summed by Stats, so a fan-out's
// work items never share a counter). borrowed marks an RC copied from
// the store this one was forked from: it is read here, never recycled.
type slot struct {
	rc           *NetRC
	rev          uint64
	hits, misses uint32
	valid        bool
	borrowed     bool
}

// NewCache wraps an extractor (usually a *Router) with revision-keyed
// memoization over d's nets.
func NewCache(inner Extractor, d *netlist.Design) *Cache {
	_, pooled := inner.(*Router)
	return &Cache{inner: inner, d: d, pooled: pooled}
}

// Grow sizes the slots to the design's nets. A fan-out of Extract calls
// must run it first, serially; serial callers need not, since Extract
// grows on demand.
func (c *Cache) Grow() {
	if len(c.slots) < len(c.d.Nets) {
		grown := make([]slot, len(c.d.Nets))
		copy(grown, c.slots)
		c.slots = grown
	}
}

// Extract implements Extractor: a journal-validated hit returns the
// stored RC; anything else re-extracts, stores the result and recycles
// the RC it replaced.
//
//pool:boundary the store owns publication of NetRC results
func (c *Cache) Extract(n *netlist.Net) *NetRC {
	if n.ID >= len(c.slots) {
		c.Grow()
	}
	s := &c.slots[n.ID]
	rev := c.d.NetRev(n)
	if s.valid && s.rev == rev {
		s.hits++
		return s.rc
	}
	s.misses++
	old, owned := s.rc, !s.borrowed && !c.shared.Load()
	s.rc, s.rev, s.valid, s.borrowed = c.inner.Extract(n), rev, true, false
	if owned {
		c.recycle(old)
	}
	return s.rc
}

// Fork returns a store over d, an exact copy of this store's design
// (netlist.Design.Clone: same net IDs, same journal revisions), whose
// slots start as this store's: every valid slot stays a hit at its
// revision, sharing this store's RC. Counters start at zero. The fork
// treats the shared RCs as read-only: it never writes, poisons or
// recycles an RC it did not extract itself, and once forked this store
// recycles nothing either, since its RCs now have readers it cannot
// see. Forks may be taken concurrently with each other and with reads;
// the store must not extract while a fork is being taken.
//
//pool:boundary forks share the store's published NetRC results read-only
func (c *Cache) Fork(d *netlist.Design) *Cache {
	c.shared.Store(true)
	f := &Cache{inner: c.inner, d: d, pooled: c.pooled, slots: make([]slot, len(c.slots))}
	for i := range c.slots {
		s := &c.slots[i]
		f.slots[i] = slot{rc: s.rc, rev: s.rev, valid: s.valid, borrowed: s.rc != nil}
	}
	return f
}

// Refresh re-extracts n when its slot is stale. Unlike Extract it counts
// nothing for a current slot: it is the incremental timer's check on
// each net a changed instance touches.
func (c *Cache) Refresh(n *netlist.Net) {
	if n.ID >= len(c.slots) || !c.slots[n.ID].valid || c.slots[n.ID].rev != c.d.NetRev(n) {
		c.Extract(n)
	}
}

// Wiring returns the wirelength and MIV count stored for n when its
// slot holds an extraction at n's current revision. It counts nothing,
// so whole-design sums read the store without moving its hit/miss
// statistics.
func (c *Cache) Wiring(n *netlist.Net) (wireLen float64, mivs int, ok bool) {
	if n.ID >= len(c.slots) {
		return 0, 0, false
	}
	s := &c.slots[n.ID]
	if !s.valid || s.rev != c.d.NetRev(n) {
		return 0, 0, false
	}
	return s.rc.WireLen, s.rc.MIVs, true
}

// WireCap returns the wire capacitance stored for net id. The slot must
// hold an extraction.
func (c *Cache) WireCap(id int) float64 { return c.slots[id].rc.WireCap }

// Sink returns the wire resistance stored for sink i of net id and the
// wire capacitance charged through it. The slot must hold an extraction.
func (c *Cache) Sink(id, i int) (r, capShare float64) {
	rc := c.slots[id].rc
	return rc.SinkR[i], rc.SinkCapShare[i]
}

// recycle returns an RC the store no longer references to the free list
// when the inner extractor is pool-backed.
func (c *Cache) recycle(rc *NetRC) {
	if c.pooled {
		RecycleRC(rc)
	}
}

// Stats returns the cumulative hit/miss counters.
func (c *Cache) Stats() CacheStats {
	var s CacheStats
	for i := range c.slots {
		s.Hits += int64(c.slots[i].hits)
		s.Misses += int64(c.slots[i].misses)
	}
	return s
}

// Invalidate drops every slot; the next lookups re-extract. Useful after
// mutations that bypassed the journal.
func (c *Cache) Invalidate() {
	for i := range c.slots {
		c.slots[i].valid = false
	}
}

// ErrCorrupted reports an audit finding: a cached entry whose stored RC no
// longer matches a fresh extraction at the same journal revision — silent
// wrong data, the one failure the revision key cannot catch.
type ErrCorrupted struct {
	Net string
}

func (e *ErrCorrupted) Error() string {
	return fmt.Sprintf("route: extraction cache corrupted: net %s diverges from fresh extraction at its cached revision", e.Net)
}

// Audit re-extracts every valid, revision-current slot and compares it to
// the stored RC, returning an *ErrCorrupted for the first divergence. It
// is the detection side of fault injection's extraction-cache corruption:
// the revision key guarantees freshness only if the stored values were
// right when stored. Audit is O(nets) per call, so the timing env enables
// it only when a fault plan is armed.
func (c *Cache) Audit() error {
	for i := range c.slots {
		s := &c.slots[i]
		if !s.valid || i >= len(c.d.Nets) {
			continue
		}
		n := c.d.Nets[i]
		if n == nil || c.d.NetRev(n) != s.rev {
			continue
		}
		fresh := c.inner.Extract(n)
		bad := !rcEqual(s.rc, fresh)
		c.recycle(fresh) // audit-private comparison copy, never published
		if bad {
			return &ErrCorrupted{Net: n.Name}
		}
	}
	return nil
}

func rcEqual(a, b *NetRC) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.WireLen != b.WireLen || a.WireCap != b.WireCap || a.MIVs != b.MIVs ||
		len(a.SinkR) != len(b.SinkR) || len(a.SinkCapShare) != len(b.SinkCapShare) {
		return false
	}
	for i := range a.SinkR {
		if a.SinkR[i] != b.SinkR[i] {
			return false
		}
	}
	for i := range a.SinkCapShare {
		if a.SinkCapShare[i] != b.SinkCapShare[i] {
			return false
		}
	}
	return true
}

// Poison corrupts the store in place for fault injection: every valid
// slot is replaced by a perturbed copy that keeps its journal revision,
// so ordinary revision-keyed lookups keep serving the wrong values. The
// perturbation is seeded for reproducibility and never exactly zero, so
// Audit always detects it. Returns how many slots were poisoned.
//
//pool:boundary fault injection rewrites cache slots by design
func (c *Cache) Poison(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	poisoned := 0
	for i := range c.slots {
		s := &c.slots[i]
		if !s.valid || s.rc == nil {
			continue
		}
		bad := *s.rc
		bad.WireCap = bad.WireCap*(1+0.25*rng.Float64()) + 1e-15
		bad.WireLen = math.Nextafter(bad.WireLen, math.MaxFloat64) + 1e-9
		bad.SinkR = append([]float64(nil), s.rc.SinkR...)
		bad.SinkCapShare = append([]float64(nil), s.rc.SinkCapShare...)
		s.rc, s.borrowed = &bad, false
		poisoned++
	}
	return poisoned
}
