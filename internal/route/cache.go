package route

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/netlist"
)

// Extractor is the RC-extraction interface timing and power analysis
// consume: Router implements it directly, and Cache wraps any Extractor
// with revision-keyed memoization.
type Extractor interface {
	// Extract returns the lumped RC view of a net. Callers must treat the
	// result as immutable — a caching implementation hands the same
	// pointer to every caller.
	Extract(n *netlist.Net) *NetRC
}

// CacheStats counts cache effectiveness for the engine-observability
// report.
type CacheStats struct {
	Hits, Misses int64
	// Coalesced counts lookups that found an extraction of the same net
	// revision already in flight on another goroutine and waited for its
	// result instead of extracting again — the singleflight path. It is
	// always 0 in a serial flow.
	Coalesced int64
}

// HitRate returns the fraction of lookups served without a fresh
// extraction (0 when the cache was never queried). Coalesced lookups
// count as served: they returned a shared result, not new work.
func (s CacheStats) HitRate() float64 {
	served := s.Hits + s.Coalesced
	if served+s.Misses == 0 {
		return 0
	}
	return float64(served) / float64(served+s.Misses)
}

// Cache memoizes per-net extraction keyed on the design's change journal:
// an entry is valid exactly while netlist.Design.NetRev is unchanged, which
// the journal guarantees moves whenever the net's pin membership or any
// connected instance's location or tier changes. Gate resizes do not move
// net revisions, so the whole timing-repair sizing loop runs on warm
// entries.
//
// A Cache belongs to one flow but is safe for concurrent use within it:
// the parallel extraction fan-outs (the timer's full pass, concurrent
// timing+power analysis) may call Extract from many goroutines. Fills
// are per-revision singleflight — when several goroutines miss on the
// same net at the same revision, exactly one runs the underlying
// extraction and the rest wait for (and share) its result. The flight
// lives in the net's own entry and the rare waiters sleep on one
// condition variable, so a miss allocates nothing beyond the extraction
// itself. The design itself must be quiescent while extractions run
// concurrently; mutating the netlist is only legal with no Extract in
// flight, which the flow's phase structure guarantees.
type Cache struct {
	inner Extractor
	d     *netlist.Design

	mu sync.Mutex
	// landed wakes the goroutines waiting on any flight (over mu); each
	// re-checks its own entry.
	landed sync.Cond
	// entries is indexed by net ID and grows lazily as nets are added.
	entries []cacheEntry
	// gen invalidation generation: a flight started before an Invalidate
	// must not re-validate its entry afterwards.
	gen   uint64
	stats CacheStats
}

// cacheEntry is one net's slot: the last extraction stored (valid while
// its revision is current and no Invalidate dropped it) and the
// extraction in flight, if any.
type cacheEntry struct {
	rc    *NetRC
	rev   uint64
	valid bool
	// flying marks an extraction of revision flightRev in progress,
	// started at generation flightGen.
	flying    bool
	flightRev uint64
	flightGen uint64
}

// NewCache wraps an extractor (usually a *Router) with revision-keyed
// memoization over d's nets.
func NewCache(inner Extractor, d *netlist.Design) *Cache {
	c := &Cache{inner: inner, d: d}
	c.landed.L = &c.mu
	return c
}

// Extract implements Extractor: a journal-validated hit returns the
// stored RC, a lookup that races an in-flight extraction of the same
// revision waits for it, and anything else re-extracts and stores.
//
//pool:boundary the cache owns publication of NetRC results
func (c *Cache) Extract(n *netlist.Net) *NetRC {
	c.mu.Lock()
	if n.ID >= len(c.entries) {
		grown := make([]cacheEntry, len(c.d.Nets))
		copy(grown, c.entries)
		c.entries = grown
	}
	rev := c.d.NetRev(n)
	e := &c.entries[n.ID]
	if e.valid && e.rev == rev {
		c.stats.Hits++
		rc := e.rc
		c.mu.Unlock()
		return rc
	}
	if e.flying && e.flightRev == rev {
		for e.flying && e.flightRev == rev {
			c.landed.Wait()
			e = &c.entries[n.ID] // the slice may have grown meanwhile
		}
		// The flight stored its result, validated or not.
		if e.rev == rev && e.rc != nil {
			c.stats.Coalesced++
			rc := e.rc
			c.mu.Unlock()
			return rc
		}
	}
	e.flying, e.flightRev, e.flightGen = true, rev, c.gen
	c.stats.Misses++
	c.mu.Unlock()

	rc := c.inner.Extract(n)

	c.mu.Lock()
	e = &c.entries[n.ID]
	// Store the result even when an Invalidate landed meanwhile: waiters
	// read it from here, and Recycle must see it as published. It only
	// serves later lookups if the generation still matches.
	e.rc, e.rev, e.valid = rc, rev, e.flightGen == c.gen
	e.flying = false
	c.mu.Unlock()
	c.landed.Broadcast()
	return rc
}

// Recycle offers rc back to the extraction free list on behalf of a
// caller that received it from Extract and has since replaced it (the
// incremental timing engine, after a revision moved). The cache refuses
// when the pointer is still published — stored in the current entry or
// held by an in-flight extraction — so a stale Recycle is safe: at
// worst the storage is not reused.
func (c *Cache) Recycle(n *netlist.Net, rc *NetRC) {
	if rc == nil {
		return
	}
	c.mu.Lock()
	live := false
	if n.ID < len(c.entries) {
		e := &c.entries[n.ID]
		// A flight's result may be this pointer; don't race the fill.
		live = e.rc == rc || e.flying
	}
	c.mu.Unlock()
	if !live {
		RecycleRC(rc)
	}
}

// Stats returns the cumulative hit/miss/coalesce counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Invalidate drops every entry; the next lookups re-extract. Extractions
// already in flight complete but do not re-validate their entries.
// Useful after mutations that bypassed the journal.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	for i := range c.entries {
		c.entries[i].valid = false
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

// Audit re-extracts every valid, revision-current entry and compares it to
// the cached RC, returning an *ErrCorrupted for the first divergence. It is
// the detection side of fault injection's extraction-cache corruption: the
// revision key guarantees freshness only if the stored values were right
// when stored. Audit is O(nets) per call, so the timing env enables it only
// when a fault plan is armed. It snapshots the entries and runs the fresh
// extractions unlocked; audit a quiescent cache (no concurrent fills).
func (c *Cache) Audit() error {
	c.mu.Lock()
	snap := append([]cacheEntry(nil), c.entries...)
	c.mu.Unlock()
	for i := range snap {
		e := &snap[i]
		if !e.valid || i >= len(c.d.Nets) {
			continue
		}
		n := c.d.Nets[i]
		if n == nil || c.d.NetRev(n) != e.rev {
			continue
		}
		fresh := c.inner.Extract(n)
		bad := !rcEqual(e.rc, fresh)
		RecycleRC(fresh) // audit-private comparison copy, never published
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

// Poison corrupts the cache in place for fault injection: every valid
// entry is replaced by a perturbed copy that keeps its journal revision,
// so ordinary revision-keyed lookups keep serving the wrong values. The
// perturbation is seeded for reproducibility and never exactly zero, so
// Audit always detects it. Returns how many entries were poisoned.
//
//pool:boundary fault injection rewrites cache slots by design
func (c *Cache) Poison(seed int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	poisoned := 0
	for i := range c.entries {
		e := &c.entries[i]
		if !e.valid || e.rc == nil {
			continue
		}
		bad := *e.rc
		bad.WireCap = bad.WireCap*(1+0.25*rng.Float64()) + 1e-15
		bad.WireLen = math.Nextafter(bad.WireLen, math.MaxFloat64) + 1e-9
		bad.SinkR = append([]float64(nil), e.rc.SinkR...)
		bad.SinkCapShare = append([]float64(nil), e.rc.SinkCapShare...)
		e.rc = &bad
		poisoned++
	}
	return poisoned
}
