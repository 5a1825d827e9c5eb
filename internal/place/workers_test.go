package place

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/par"
)

// TestGlobalWorkersEquivalence pins the placer's determinism contract:
// the level-synchronous frontier produces byte-identical locations at
// any worker count, because every bisection reads the level-start
// location snapshot and all SetLoc updates apply sequentially in
// region order. Under -race this also proves the frontier fan-out has
// no conflicting accesses. It doubles as the RNG-audit regression for
// this kernel — each worker's FM engine re-seeds its own random stream
// on every call, so a shared-RNG regression, or a stream that carried
// state from one cut to the next, would break the equality.
func TestGlobalWorkersEquivalence(t *testing.T) {
	locs := func(workers int) []geom.Point {
		d := genDesign(t, designs.AES, 0.05)
		fp, err := NewFloorplan(d, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultGlobalOptions()
		opt.Workers = workers
		opt.Par = &par.Stats{}
		if err := Global(d, fp.Core, opt); err != nil {
			t.Fatal(err)
		}
		if opt.Par.Batches == 0 || opt.Par.Tasks == 0 {
			t.Fatalf("workers %d: no fan-outs recorded: %+v", workers, *opt.Par)
		}
		out := make([]geom.Point, len(d.Instances))
		for i, inst := range d.Instances {
			out[i] = inst.Loc
		}
		return out
	}
	serial := locs(1)
	for _, w := range []int{2, 8} {
		got := locs(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers %d: instance %d placed at %v, serial placed %v", w, i, got[i], serial[i])
			}
		}
	}
}

// TestGlobalWorkersStatsScheduleIndependent pins that the placer's
// fan-out counters count scheduled work, not execution interleavings:
// identical at any worker count so they can surface in flow stats.
func TestGlobalWorkersStatsScheduleIndependent(t *testing.T) {
	stats := func(workers int) par.Stats {
		d := genDesign(t, designs.AES, 0.05)
		fp, err := NewFloorplan(d, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultGlobalOptions()
		opt.Workers = workers
		opt.Par = &par.Stats{}
		if err := Global(d, fp.Core, opt); err != nil {
			t.Fatal(err)
		}
		return *opt.Par
	}
	s1, s8 := stats(1), stats(8)
	if s1 != s8 {
		t.Fatalf("placer stats differ across worker counts: %+v vs %+v", s1, s8)
	}
}
