package place

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// TestBisectAllocs pins the steady-state allocation count and bytes per
// op of one bisection cut — the placer's hot kernel, run once per region
// per recursion level. With a warm scratch (epoch-stamped index maps, a
// hypergraph sized once from the adjacency, an engine that keeps its
// V-cycle levels and re-seeds its own random stream) a cut allocates
// only the result snapshot: the Solution struct and its side copy.
func TestBisectAllocs(t *testing.T) {
	d := genDesign(t, designs.AES, 0.05)
	region := geom.R(0, 0, 120, 100)
	var cells []*netlist.Instance
	for _, inst := range d.Instances {
		if inst.Fixed || inst.Master.Function.IsMacro() {
			continue
		}
		cells = append(cells, inst)
		inst.SetLoc(region.Center())
	}
	adj := buildAdjacency(d, 64)
	opt := DefaultGlobalOptions()
	sc := newBisectScratch()

	run := func() {
		if _, _, _, _, err := bisect(sc, d, adj, region, cells, opt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm the scratch
	}
	if raceEnabled {
		t.Skip("race detector: instrumentation allocates; the budgets hold in non-race builds")
	}
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("allocs/run: bisect over %d cells=%v", len(cells), allocs)
	if allocs > maxBisectAllocs {
		t.Errorf("bisect allocates %v per run over %d cells, want <= %v",
			allocs, len(cells), maxBisectAllocs)
	}

	bytes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run()
		}
	}).AllocedBytesPerOp()
	t.Logf("B/op: bisect over %d cells=%d", len(cells), bytes)
	if bytes > maxBisectBytes {
		t.Errorf("bisect allocates %d B/op over %d cells, want <= %d",
			bytes, len(cells), maxBisectBytes)
	}
}

// maxBisectAllocs covers the Solution snapshot (struct + side copy, the
// 2 allocations a warm cut measures) plus the odd coarse level that
// reaches a new high-water mark while the measurement warms (3 measured
// in the first 20 runs, 2 after); the pre-refactor kernel allocated
// thousands per cut (maps, per-net pin slices, fresh hypergraphs), and
// a per-cut random source and permutation add two more.
const maxBisectAllocs = 4

// maxBisectBytes is the B/op budget, max(2 × measured, 512) over the
// 1 650 B the warm cut measures at most (about 1 200 B of snapshot plus
// coarse-level growth amortized over the runs): a per-cut random source
// (~5 KB), hypergraph rebuild or fresh V-cycle level costs far more than
// the doubling absorbs.
const maxBisectBytes = 2 * 1650
