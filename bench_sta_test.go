// Timing-engine benchmarks: the incremental sta.Timer against the
// one-shot analysis it replaces, on the repair-loop workload the flow
// engine actually runs. Both benchmarks pair a "full" sub-benchmark
// (fresh analysis per round, raw extraction — the pre-Timer behaviour)
// with an "incremental" one (persistent Timer over a revision-keyed
// extraction cache); the wall-clock ratio is the engine's payoff.
// BenchmarkStaFull isolates the full pass's propagation at 1 and 2
// workers. bench/'s sta.analyze_full_ms and sta.update_incr_ms track
// both sweeps.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/designs"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/tech"
)

// benchPeriod is a deliberately tight clock so the repair workload finds
// failing cells to act on.
const benchPeriod = 0.45

// benchDesign generates netcard — the suite's largest netlist — at the
// benchmark scale with a deterministic placement scatter, so extraction
// sees real wire RC.
func benchDesign(b *testing.B, scale float64) (*netlist.Design, *cell.Library) {
	b.Helper()
	lib := cell.NewLibrary(tech.Variant12T())
	d, err := designs.Generate(designs.Netcard, lib, designs.Params{Scale: scale, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, inst := range d.Instances {
		inst.SetLoc(geom.Pt(rng.Float64()*400, rng.Float64()*400))
	}
	return d, lib
}

// benchMoveTargets picks a deterministic spread of combinational cells
// to perturb, one per round.
func benchMoveTargets(d *netlist.Design) []*netlist.Instance {
	var out []*netlist.Instance
	for i, inst := range d.Instances {
		if i%97 != 0 || inst.Master.Function.IsSequential() || inst.Master.Function.IsMacro() {
			continue
		}
		out = append(out, inst)
	}
	return out
}

// benchResizeTargets picks cells that can step one drive up, paired with
// their up-masters, so rounds can toggle sizes forever without drifting.
func benchResizeTargets(d *netlist.Design, lib *cell.Library, max int) (insts []*netlist.Instance, up []*cell.Master) {
	for i, inst := range d.Instances {
		if i%53 != 0 || inst.Master.Function.IsSequential() || inst.Master.Function.IsMacro() {
			continue
		}
		m := lib.NextDriveUp(inst.Master)
		if m == nil {
			continue
		}
		insts = append(insts, inst)
		up = append(up, m)
		if len(insts) == max {
			break
		}
	}
	return insts, up
}

// BenchmarkStaIncremental times one placement nudge plus re-analysis:
// the full path re-times the whole design from scratch each round; the
// incremental path re-propagates from the moved cell's frontier. The
// whatif and settled sub-benchmarks batch eight nudges per update, read
// nothing that needs required times, or settle them with SlackMap: their
// ratio is what deferring the backward sweep saves a reader that never
// needs it.
func BenchmarkStaIncremental(b *testing.B) {
	scale := *benchScale
	b.Run("full", func(b *testing.B) {
		d, _ := benchDesign(b, scale)
		moves := benchMoveTargets(d)
		if len(moves) == 0 {
			b.Fatal("no movable cells")
		}
		cfg := sta.DefaultConfig(benchPeriod)
		cfg.Router = route.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := moves[i%len(moves)]
			m.SetLoc(geom.Pt(m.Loc.X+1, m.Loc.Y))
			if _, err := sta.Analyze(d, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whatif", benchWhatIf(false))
	b.Run("settled", benchWhatIf(true))
	b.Run("incremental", func(b *testing.B) {
		d, _ := benchDesign(b, scale)
		moves := benchMoveTargets(d)
		if len(moves) == 0 {
			b.Fatal("no movable cells")
		}
		cfg := sta.DefaultConfig(benchPeriod)
		cfg.Router = route.NewCache(route.New(), d)
		tm, err := sta.NewTimer(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tm.Update(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := moves[i%len(moves)]
			m.SetLoc(geom.Pt(m.Loc.X+1, m.Loc.Y))
			if _, err := tm.Update(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWhatIf times one what-if round on a persistent Timer: eight
// placement nudges, then Update. Without settle it stops there, as a
// flowd timing query does (it reads only WNS/TNS and the endpoint
// counts, so no required times settle); with settle it adds the SlackMap
// read a repair round makes, which settles the required times the update
// owes.
func benchWhatIf(settle bool) func(b *testing.B) {
	return func(b *testing.B) {
		d, _ := benchDesign(b, *benchScale)
		moves := benchMoveTargets(d)
		if len(moves) == 0 {
			b.Fatal("no movable cells")
		}
		cfg := sta.DefaultConfig(benchPeriod)
		cfg.Router = route.NewCache(route.New(), d)
		tm, err := sta.NewTimer(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tm.Update(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 8; j++ {
				m := moves[(8*i+j)%len(moves)]
				m.SetLoc(geom.Pt(m.Loc.X+1, m.Loc.Y))
			}
			res, err := tm.Update()
			if err != nil {
				b.Fatal(err)
			}
			if settle {
				_ = res.SlackMap()
			}
		}
	}
}

// BenchmarkStaFull times one full Timer.Update at 1 and 2 workers. The
// route.Cache is warmed by an untimed first update, so each round
// measures the level-parallel propagation sweeps, not extraction; the
// ratio of the two is the sweeps' two-core payoff.
func BenchmarkStaFull(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			d, _ := benchDesign(b, *benchScale)
			cfg := sta.DefaultConfig(benchPeriod)
			cfg.Router = route.NewCache(route.New(), d)
			cfg.ForceFull = true
			cfg.Workers = workers
			tm, err := sta.NewTimer(d, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tm.Update(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tm.Update(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepairTiming times one sizing round of the repair loop: flip
// a bounded set of cells one drive step (up on even rounds, back down on
// odd, so the netlist never drifts), then re-analyze and read the slack
// map — exactly the per-round timing work of core's repairTiming.
func BenchmarkRepairTiming(b *testing.B) {
	scale := *benchScale
	const nResize = 24
	b.Run("full", func(b *testing.B) {
		d, lib := benchDesign(b, scale)
		insts, up := benchResizeTargets(d, lib, nResize)
		if len(insts) == 0 {
			b.Fatal("no resizable cells")
		}
		down := make([]*cell.Master, len(insts))
		for j, inst := range insts {
			down[j] = inst.Master
		}
		cfg := sta.DefaultConfig(benchPeriod)
		cfg.Router = route.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			masters := up
			if i%2 == 1 {
				masters = down
			}
			for j, inst := range insts {
				if err := d.ReplaceMaster(inst, masters[j]); err != nil {
					b.Fatal(err)
				}
			}
			res, err := sta.Analyze(d, cfg)
			if err != nil {
				b.Fatal(err)
			}
			_ = res.SlackMap()
		}
	})
	b.Run("incremental", func(b *testing.B) {
		d, lib := benchDesign(b, scale)
		insts, up := benchResizeTargets(d, lib, nResize)
		if len(insts) == 0 {
			b.Fatal("no resizable cells")
		}
		down := make([]*cell.Master, len(insts))
		for j, inst := range insts {
			down[j] = inst.Master
		}
		cfg := sta.DefaultConfig(benchPeriod)
		cfg.Router = route.NewCache(route.New(), d)
		tm, err := sta.NewTimer(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tm.Update(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			masters := up
			if i%2 == 1 {
				masters = down
			}
			for j, inst := range insts {
				if err := d.ReplaceMaster(inst, masters[j]); err != nil {
					b.Fatal(err)
				}
			}
			res, err := tm.Update()
			if err != nil {
				b.Fatal(err)
			}
			_ = res.SlackMap()
		}
	})
}
