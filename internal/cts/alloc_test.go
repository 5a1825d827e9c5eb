package cts

import (
	"testing"

	"repro/internal/netlist"
)

// TestPartitionAllocs pins the allocation count and bytes per op of the
// CTS sink partition: with in-place median splits over one shared
// backing array, building the tree must allocate exactly the tree nodes
// — no per-level sink copies, no sort scaffolding.
func TestPartitionAllocs(t *testing.T) {
	d := placedDesign(t, false)
	var clk *netlist.Net
	for _, n := range d.Nets {
		if n.IsClock && n.DriverPort != nil {
			clk = n
			break
		}
	}
	if clk == nil || len(clk.Sinks) < 8 {
		t.Fatalf("test design lacks a clock net with enough sinks")
	}
	work := append([]netlist.PinRef{}, clk.Sinks...)
	const maxLeaf = 4
	var pt *ptree
	run := func() { pt = partition(work, 1, maxLeaf, 1) }
	run() // size the tree (and re-sorting in place is idempotent)
	nodes := countNodes(pt)
	if raceEnabled {
		t.Skip("race detector: instrumentation allocates and sync.Pool drops cached items; the budgets hold in non-race builds")
	}

	allocs := testing.AllocsPerRun(20, run)
	t.Logf("allocs/run: partition of %d sinks into %d nodes=%v", len(work), nodes, allocs)
	if allocs > float64(nodes)+2 {
		t.Errorf("partition allocates %v per run, want <= %d tree nodes (+2 jitter)",
			allocs, nodes)
	}

	bytes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run()
		}
	}).AllocedBytesPerOp()
	t.Logf("B/op: partition of %d sinks=%d", len(work), bytes)
	if bytes > maxPartitionBytes {
		t.Errorf("partition allocates %d B/op, want <= %d", bytes, maxPartitionBytes)
	}
}

// maxPartitionBytes is the B/op budget, max(2 × measured, 512) over the
// 3 024 B of tree nodes the partition measures: a per-level sink copy
// or sort scaffolding costs far more than the doubling absorbs.
const maxPartitionBytes = 2 * 3024
