package sta

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// rcValues copies every value the store holds for d's signal nets, read
// without counting, so a later comparison catches an RC rewritten in
// place or recycled and reused by another extraction.
func rcValues(c *route.Cache, d *netlist.Design) [][]float64 {
	out := make([][]float64, len(d.Nets))
	for i, n := range d.Nets {
		wl, mivs, ok := c.Wiring(n)
		if n.IsClock || !ok {
			continue
		}
		v := []float64{wl, float64(mivs), c.WireCap(i)}
		for s := 0; s < len(n.Sinks)+len(n.SinkPorts); s++ {
			r, cs := c.Sink(i, s)
			v = append(v, r, cs)
		}
		out[i] = v
	}
	return out
}

// TestTimerFork: a Timer forked from a fully updated base onto a clone of
// its design, after K ∈ {0, 1, 8} rounds of placement moves and tier
// flips with an Update each, equals a fresh Analyze of the clone bit for
// bit; with K = 0 its first Update is incremental with nothing dirty and
// runs no full update. The forks are taken and driven concurrently, and
// afterwards the base's Result and every RC in its store are exactly as
// they were before the forks re-extracted.
func TestTimerFork(t *testing.T) {
	type workload struct {
		name string
		d    *netlist.Design
	}
	var loads []workload
	for _, name := range []designs.Name{designs.AES, designs.LDPC} {
		d, err := designs.Generate(name, lib12, designs.Params{Scale: 0.04, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for _, inst := range d.Instances {
			inst.Loc = geom.Pt(rng.Float64()*80, rng.Float64()*80)
		}
		loads = append(loads, workload{string(name), d})
	}
	for seed := int64(0); seed < 4; seed++ {
		d := randomDAG(t, seed)
		rng := rand.New(rand.NewSource(seed * 13))
		for _, inst := range d.Instances {
			if rng.Intn(3) == 0 {
				inst.Tier = tech.TierTop
			}
		}
		loads = append(loads, workload{"dag" + itoa(int(seed)), d})
	}
	// Latency keyed by instance ID, as cts.Result.LatencyFunc is.
	latency := func(inst *netlist.Instance) float64 { return float64(inst.ID%5) * 0.004 }

	for _, w := range loads {
		cfg := DefaultConfig(0.8)
		cfg.Latency = latency
		bcfg := cfg
		bcfg.Router = route.NewCache(route.New(), w.d)
		base, err := NewTimer(w.d, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.Update(); err != nil {
			t.Fatal(err)
		}
		baseSnap := base.Result().Snapshot()
		baseRC := rcValues(base.Extraction(), w.d)

		ks := []int{0, 1, 8}
		forks := make([]*Timer, len(ks))
		clones := make([]*netlist.Design, len(ks))
		got := make([]*Result, len(ks))
		errs := make([]error, len(ks))
		var wg sync.WaitGroup
		for i, k := range ks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := w.d.Clone()
				f := base.Fork(c, 2)
				clones[i], forks[i] = c, f
				rng := rand.New(rand.NewSource(int64(100 + k)))
				if got[i], errs[i] = f.Update(); errs[i] != nil {
					return
				}
				for round := 0; round < k; round++ {
					for e := 0; e < 4; e++ {
						inst := c.Instances[rng.Intn(len(c.Instances))]
						if e == 3 {
							inst.SetTier(inst.Tier.Other())
						} else {
							inst.SetLoc(geom.Pt(rng.Float64()*80, rng.Float64()*80))
						}
					}
					if got[i], errs[i] = f.Update(); errs[i] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()

		for i, k := range ks {
			tag := w.name + "/K" + itoa(k)
			if errs[i] != nil {
				t.Fatalf("%s: %v", tag, errs[i])
			}
			if k == 0 {
				if s := forks[i].Stats(); s.FullUpdates != 0 || s.IncrementalUpdates != 1 || s.NodesReevaluated != 0 {
					t.Fatalf("%s: first update of a fork = %+v, want one incremental with nothing dirty", tag, s)
				}
			}
			fcfg := cfg
			fcfg.Router = route.New()
			want, err := Analyze(clones[i], fcfg)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, tag, clones[i], got[i], want)
		}
		if after := base.Result().Snapshot(); !reflect.DeepEqual(after, baseSnap) {
			t.Fatalf("%s: forks moved the base's Result", w.name)
		}
		if after := rcValues(base.Extraction(), w.d); !reflect.DeepEqual(after, baseRC) {
			t.Fatalf("%s: forks changed an RC in the base's store", w.name)
		}
	}
}
