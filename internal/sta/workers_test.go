package sta

import (
	"math/rand"
	"testing"

	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/tech"
)

// TestAnalyzeWorkersEquivalence pins the parallel full pass's determinism
// contract: an analysis at any Config.Workers value is bit-identical to
// the serial one — summaries, every per-instance array, the endpoint
// table, slack maps, and critical paths. Run with -race this also proves
// the level schedule has no conflicting accesses.
func TestAnalyzeWorkersEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := randomDAG(t, seed)
		rng := rand.New(rand.NewSource(seed * 3))
		for _, inst := range d.Instances {
			if rng.Intn(3) == 0 {
				inst.Tier = tech.TierTop
			}
		}
		cfg := DefaultConfig(0.7)
		serial, err := Analyze(d, cfg)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, w := range []int{2, 8} {
			pcfg := cfg
			pcfg.Workers = w
			got, err := Analyze(d, pcfg)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			requireEqualResults(t, "dag"+itoa(int(seed))+"/w"+itoa(w), d, got, serial)
		}
	}
}

// TestAnalyzeWorkersEquivalenceGenerated runs the same property on a
// generated benchmark (deeper levels, wider fan-out), with a caller-
// supplied route.Cache as the Timer's RC store, so the eight-worker
// fill writes the lock-free slots the caller shares.
func TestAnalyzeWorkersEquivalenceGenerated(t *testing.T) {
	d, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, inst := range d.Instances {
		inst.Loc = geom.Pt(rng.Float64()*80, rng.Float64()*80)
	}
	cfg := DefaultConfig(0.8)
	serial, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Workers = 8
	store := route.NewCache(route.New(), d)
	pcfg.Router = store
	got, err := Analyze(d, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "aes/w8", d, got, serial)
	signal := 0
	for _, n := range d.Nets {
		if !n.IsClock {
			signal++
		}
	}
	if s := store.Stats(); s.Misses != int64(signal) || s.Hits != 0 {
		t.Errorf("store stats = %+v, want one miss per signal net (%d) and no hits", s, signal)
	}
}

// TestTimerWorkersStatsScheduleIndependent pins that the parallel-fanout
// counters count scheduled work: identical at any worker count, so they
// can surface in deterministic flow outputs.
func TestTimerWorkersStatsScheduleIndependent(t *testing.T) {
	stats := func(workers int) TimerStats {
		d := randomDAG(t, 21)
		cfg := DefaultConfig(0.7)
		cfg.Workers = workers
		tm, err := NewTimer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tm.Update(); err != nil {
			t.Fatal(err)
		}
		return tm.Stats()
	}
	s1, s8 := stats(1), stats(8)
	if s1 != s8 {
		t.Fatalf("timer stats differ across worker counts: %+v vs %+v", s1, s8)
	}
	if s1.ParBatches == 0 || s1.ParTasks == 0 {
		t.Fatalf("full update recorded no fan-outs: %+v", s1)
	}
}
