package route

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// TestPerNetKernelAllocs pins the steady-state allocation count and
// bytes per op of the per-net routing kernel — RSMT construction,
// wirelength, MIV counting, and RC extraction with recycling. Once the
// scratch and RC pools are warm, the whole chain must stay off the
// allocator: the flow runs it once per net per sweep, so any per-call
// allocation here multiplies by millions at scale 1.0.
func TestPerNetKernelAllocs(t *testing.T) {
	locs := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 2), geom.Pt(4, 8),
		geom.Pt(7, 5), geom.Pt(1, 6),
	}
	tiers := []tech.Tier{
		tech.TierBottom, tech.TierTop, tech.TierBottom,
		tech.TierTop, tech.TierBottom,
	}
	_, n := buildNet3D(t, locs, tiers)
	r := New()

	chain := func() {
		r.NetWirelength(n)
		r.CountMIVs(n)
		RecycleRC(r.Extract(n))
	}
	for i := 0; i < 3; i++ {
		chain() // warm the per-P scratch and RC pools
	}

	if raceEnabled {
		t.Skip("race detector: instrumentation allocates and sync.Pool drops cached items; the budgets hold in non-race builds")
	}

	wl := testing.AllocsPerRun(50, func() { r.NetWirelength(n) })
	miv := testing.AllocsPerRun(50, func() { r.CountMIVs(n) })
	rc := testing.AllocsPerRun(50, func() { RecycleRC(r.Extract(n)) })
	t.Logf("allocs/run: NetWirelength=%v CountMIVs=%v Extract+Recycle=%v", wl, miv, rc)
	if wl > 0 {
		t.Errorf("NetWirelength allocates %v per run, want 0", wl)
	}
	if miv > 0 {
		t.Errorf("CountMIVs allocates %v per run, want 0", miv)
	}
	if rc > 0 {
		t.Errorf("Extract+RecycleRC allocates %v per run, want 0", rc)
	}

	bytes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chain()
		}
	}).AllocedBytesPerOp()
	t.Logf("B/op: whole per-net chain=%d", bytes)
	if bytes > maxPerNetBytes {
		t.Errorf("per-net chain allocates %d B/op, want <= %d", bytes, maxPerNetBytes)
	}
}

// maxPerNetBytes is the chain's B/op budget, max(2 × measured, 512):
// it measures 0, and the 512 B floor absorbs pool jitter around zero
// while a reintroduced per-net slice or map still lands far above it.
const maxPerNetBytes = 512

// TestCacheMissAllocs pins the store's price: a hit allocates nothing,
// and a miss through an extractor that allocates nothing allocates
// nothing either — the slot is the whole bookkeeping.
func TestCacheMissAllocs(t *testing.T) {
	d, mid := cacheDesign(t)
	shared := &NetRC{}
	c := NewCache(extractFunc(func(*netlist.Net) *NetRC { return shared }), d)
	miss := func() {
		c.Invalidate()
		c.Extract(mid)
	}
	hit := func() { c.Extract(mid) }
	miss() // size the slots
	if raceEnabled {
		t.Skip("race detector: instrumentation allocates; the budget holds in non-race builds")
	}
	before := c.Stats()
	if allocs := testing.AllocsPerRun(100, hit); allocs != 0 {
		t.Errorf("a cache hit allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Errorf("a cache miss allocates %v per run, want 0", allocs)
	}
	after := c.Stats()
	if got := after.Hits - before.Hits; got < 100 {
		t.Errorf("%d hits measured, want every hit run to hit", got)
	}
	if got := after.Misses - before.Misses; got < 100 {
		t.Errorf("%d misses measured, want every miss run to miss", got)
	}
}
