package main

import (
	"context"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/sta"
)

// Incremental-update probe: incrCalls Timer updates, each after nudging
// incrMoves cells by up to incrNudgeUM in x and y.
const (
	incrCalls   = 50
	incrMoves   = 8
	incrNudgeUM = 2.0
)

// timeKernels is the traced pass's direct timing of single layers on a
// finished design: it verifies and reloads the design database at path
// (saved at sign-off with opt's recipe), then times full and incremental
// timing, whole-design extraction and power analysis on the reloaded
// copy.
func timeKernels(rec *recorder, src *netlist.Design, cfg core.ConfigName, opt core.Options, path string, res *repResult) error {
	const track = "kernels"
	root := rec.begin("kernels", track, 0)
	defer rec.end(root)
	layer := res.Layer
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if layer["db.verify_ms"], err = rec.timed("db.verify", track, root, func() error {
		return core.VerifyDesignFile(data)
	}); err != nil {
		return err
	}
	load := opt
	load.LoadDesign = path
	load.StopAfter = core.StageSignoff
	var r *core.Result
	if layer["db.load_ms"], err = rec.timed("db.load", track, root, func() (err error) {
		r, err = core.Run(context.Background(), src, cfg, load)
		return err
	}); err != nil {
		return err
	}
	d := r.Design

	scfg, err := serve.TimingConfig(opt.ClockGHz, cfg, r.Clock, nproc)
	if err != nil {
		return err
	}
	if layer["sta.analyze_full_ms"], err = rec.timed("sta.analyze_full", track, root, func() error {
		_, err := sta.Analyze(d, scfg)
		return err
	}); err != nil {
		return err
	}

	icfg := scfg
	icfg.Router = route.NewCache(route.New(), d)
	t, err := sta.NewTimer(d, icfg)
	if err != nil {
		return err
	}
	defer t.Close()
	if _, err := t.Update(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	incr := make([]float64, 0, incrCalls)
	for i := 0; i < incrCalls; i++ {
		ms, err := rec.timed("sta.update_incr", track, root, func() error {
			for k := 0; k < incrMoves; k++ {
				inst := d.Instances[rng.Intn(len(d.Instances))]
				inst.SetLoc(geom.Point{
					X: inst.Loc.X + (2*rng.Float64()-1)*incrNudgeUM,
					Y: inst.Loc.Y + (2*rng.Float64()-1)*incrNudgeUM,
				})
			}
			_, err := t.Update()
			return err
		})
		if err != nil {
			return err
		}
		incr = append(incr, ms)
	}
	layer["sta.update_incr_ms"] = median(incr)

	// Extraction reports no error, so neither does the timed call.
	layer["route.extract_all_ms"], _ = rec.timed("route.extract_all", track, root, func() error {
		rt := route.New()
		for _, n := range d.Nets {
			route.RecycleRC(rt.Extract(n))
		}
		return nil
	})

	// Sign-off finds the flow's extraction cache warm; warm this one the
	// same way so the timing is the power kernel alone.
	pcfg := power.DefaultConfig(opt.ClockGHz)
	pcfg.Hetero = cfg == core.ConfigHetero
	pcfg.Router = route.NewCache(route.New(), d)
	if _, err := power.Analyze(d, pcfg); err != nil {
		return err
	}
	layer["power.analyze_ms"], err = rec.timed("power.analyze", track, root, func() error {
		_, err := power.Analyze(d, pcfg)
		return err
	})
	return err
}
