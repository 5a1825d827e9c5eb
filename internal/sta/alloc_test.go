package sta

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/route"
)

// TestIncrementalUpdateAllocs pins the steady-state allocation count and
// bytes per op of the incremental Timer update: after the first full
// pass, a small placement perturbation plus Update must run almost
// entirely on the Timer's reused buffers (dirty/frontier marks, endpoint
// scratch, pooled RC replacements). Timing repair and sizing loops call
// this thousands of times per flow. The same budgets hold with a read
// that settles the owed required times after each update.
func TestIncrementalUpdateAllocs(t *testing.T) {
	d, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range d.Instances {
		inst.Loc = geom.Pt(float64(i%71), float64((i*13)%67))
	}
	cfg := DefaultConfig(1.0)
	cfg.Router = route.New() // bare Router: replaced RCs recycle to the pool
	tm, err := NewTimer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Update(); err != nil {
		t.Fatal(err)
	}

	// One movable instance nudged back and forth between two spots; each
	// Update sees a one-cell frontier.
	inst := d.Instances[len(d.Instances)/2]
	flip := false
	step := func() {
		flip = !flip
		p := geom.Pt(30, 20)
		if flip {
			p = geom.Pt(31, 21)
		}
		inst.SetLoc(p)
		if _, err := tm.Update(); err != nil {
			t.Fatal(err)
		}
	}
	// settling adds the read that pays the owed required times.
	settling := func() {
		step()
		tm.Result().CellSlack(inst)
	}
	for i := 0; i < 4; i++ {
		step() // warm the scratch buffers and pools
	}
	if raceEnabled {
		t.Skip("race detector: instrumentation allocates and sync.Pool drops cached items; the budgets hold in non-race builds")
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{{"SetLoc+incremental Update", step}, {"SetLoc+incremental Update+CellSlack", settling}} {
		allocs := testing.AllocsPerRun(20, c.fn)
		t.Logf("allocs/run: %s=%v", c.name, allocs)
		// Steady state measures 0; the tiny ceiling only absorbs a GC
		// clearing a sync.Pool mid-measurement. A dropped buffer reuse
		// jumps far past it.
		if allocs > maxIncrementalAllocs {
			t.Errorf("%s allocates %v per run, want <= %v", c.name, allocs, maxIncrementalAllocs)
		}

		bytes := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		}).AllocedBytesPerOp()
		t.Logf("B/op: %s=%d", c.name, bytes)
		if bytes > maxIncrementalBytes {
			t.Errorf("%s allocates %d B/op, want <= %d", c.name, bytes, maxIncrementalBytes)
		}
	}
}

const maxIncrementalAllocs = 4

// maxIncrementalBytes is the B/op budget, max(2 × measured, 512): the
// update measures 0, and the floor plays the allocation ceiling's role.
const maxIncrementalBytes = 512
