package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cell"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// workload is one set of inputs the benchmark runs. run performs one
// repetition in the current (child) process: set-up, the measured
// region, then the correctness checks.
type workload struct {
	name, why string
	run       func(req childRequest, res *repResult) error
}

// workloads are listed in BENCHMARK.json with the same names and reasons.
var workloads = []workload{
	{"suite-tables", "Tables I-VIII regeneration: 4 designs x 5 configs plus 4 serial f_max searches, with flow-level parallelism",
		runSuite},
	{"flow-netcard-hetero", "the one flow where the FM tier partitioner carries real weight; largest design, sets peak memory",
		flowSpec{designs.Netcard, core.ConfigHetero, 0.5, 1.0}.run},
	{"flow-cpu-2d", "never enters partition, retarget, ECO or 3-D CTS, so a partitioner change must not move it; STA-heavy, with macros",
		flowSpec{designs.CPU, core.Config2D12T, 0.35, 0.95}.run},
	{"serve-cpu-whatif", "interactive what-if sessions over flowd: db restore, Timer build and incremental STA, never place or partition",
		runServe},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// scaleOf returns the request's scale override, or def without one.
func scaleOf(req childRequest, def float64) float64 {
	if req.Scale > 0 {
		return req.Scale
	}
	return def
}

// flowSpec is a single-flow workload: one core.Run of one design in one
// configuration.
type flowSpec struct {
	design   designs.Name
	config   core.ConfigName
	scale    float64
	clockGHz float64
}

// run sets up by generating the netlist and measures one core.Run. The
// traced pass adds a span sink, the sign-off boundary check and a
// design-database snapshot, then times the kernels on the reloaded
// design.
func (f flowSpec) run(req childRequest, res *repResult) error {
	var src *netlist.Design
	if err := timeSetup(res, func() (err error) {
		src, err = designs.Generate(f.design, cell.NewLibrary(tech.Variant12T()),
			designs.Params{Scale: scaleOf(req, f.scale), Seed: req.Seed})
		return err
	}); err != nil {
		return err
	}

	opt := core.DefaultOptions(f.clockGHz)
	opt.Seed = req.Seed
	opt.FlowWorkers = nproc
	var (
		rec    *recorder
		root   int
		dbPath string
	)
	if req.Traced {
		dir, err := os.MkdirTemp("", "bench-flow-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dbPath = filepath.Join(dir, "design.db")
		rec = newRecorder()
		root = rec.begin("core.Run", string(f.design)+"/"+string(f.config), 0)
		opt.Events = newStageSink(rec, root)
		opt.Check = core.CheckFast
		opt.SaveDesign = dbPath
		opt.SaveAfter = core.StageSignoff
	}

	m := startMeter()
	r, err := core.Run(context.Background(), src, f.config, opt)
	m.stop(res)
	rec.end(root)
	res.Ops = 1
	if err != nil {
		res.fail("%v", err)
		return nil
	}
	addStages(res.Layer, r.Stages)
	w := db.NewWriter()
	putPPAC(res, w, r.PPAC, f.config)
	res.Digest = digest(w)
	if f.design == designs.Netcard && r.PPAC != nil {
		res.Info = append(res.Info, fmt.Sprintf(
			"netcard parity (information only): %.3f m, %d MIVs, %.2f mW; BENCH_scale at scale 1.0, seed 1: 13.889 m, 89100 MIVs, 273.79 mW",
			r.PPAC.WLm, r.PPAC.MIVs, r.PPAC.PowerMW))
	}
	if req.Traced {
		checkReports(res, r.Checks)
		// The check mode is part of the snapshot's options fingerprint.
		opt.Events, opt.SaveDesign = nil, ""
		if err := timeKernels(rec, src, f.config, opt, dbPath, res); err != nil {
			res.fail("kernels: %v", err)
		}
		res.Spans = rec.all()
	}
	return nil
}

// suiteScale keeps one suite repetition near 3 s on 2 vCPUs.
const suiteScale = 0.05

// runSuite measures one eval.RunSuite over the full design x config
// matrix. Its set-up builds the libraries and generates the four input
// netlists; RunSuite generates them again inside the measured region, as
// cmd/ppac does. Library construction alone takes well under a
// millisecond, too little to time steadily.
func runSuite(req childRequest, res *repResult) error {
	opt := eval.DefaultSuiteOptions(scaleOf(req, suiteScale))
	if err := timeSetup(res, func() error {
		cell.NewLibrary(tech.Variant9T())
		lib := cell.NewLibrary(tech.Variant12T())
		for _, d := range opt.Designs {
			if _, err := designs.Generate(d, lib, designs.Params{Scale: opt.Scale, Seed: req.Seed}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	opt.Seed = req.Seed
	opt.Workers = nproc
	opt.FlowWorkers = nproc
	var (
		rec  *recorder
		root int
	)
	if req.Traced {
		rec = newRecorder()
		root = rec.begin("eval.RunSuite", "suite", 0)
		opt.Check = core.CheckFast
	}
	sink := newStageSink(rec, root)
	opt.Events = sink

	m := startMeter()
	s, err := eval.RunSuite(context.Background(), opt)
	region := m.stop(res)
	rec.end(root)
	res.Ops = len(opt.Designs) * len(opt.Configs)
	if err != nil {
		res.fail("%v", err)
		return nil
	}
	addStages(res.Layer, sink.stages)
	var busy time.Duration
	for _, st := range sink.stages {
		busy += st.Wall
	}
	res.Layer["eval.fmax_s"] = sink.lastFmax.Seconds()
	res.Layer["eval.busy_frac"] = busy.Seconds() / (region.WallS * float64(opt.Workers))

	w := db.NewWriter()
	for _, d := range opt.Designs {
		w.PutF64(s.Fmax[d])
		for _, c := range opt.Configs {
			r := s.Results[d][c]
			if r == nil {
				res.fail("%s/%s: no result", d, c)
				continue
			}
			putPPAC(res, w, r.PPAC, c)
			if req.Traced {
				checkReports(res, r.Checks)
			}
		}
	}
	res.Digest = digest(w)
	res.Spans = rec.all()
	return nil
}

// addStages sums stage walls into their layer metrics and the stages'
// engine counters into the counter metrics.
func addStages(layer map[string]float64, stages []flow.StageMetric) {
	var hits, misses int64
	for _, st := range stages {
		if name, ok := stageLayer[st.Name]; ok {
			layer[name] += millis(st.Wall)
		}
		layer["sta.full_updates"] += float64(st.Stats[flow.StatSTAFull])
		layer["sta.incr_updates"] += float64(st.Stats[flow.StatSTAIncr])
		layer["sta.nodes_k"] += float64(st.Stats[flow.StatSTANodes]) / 1e3
		layer["route.rc_misses"] += float64(st.Stats[flow.StatRCMisses])
		layer["par.tasks"] += float64(st.Stats[flow.StatParTasks])
		layer["place.congestion_retries"] += float64(st.Stats[flow.StatCongestionRetries])
		hits += st.Stats[flow.StatRCHits]
		misses += st.Stats[flow.StatRCMisses]
	}
	if hits+misses > 0 {
		layer["route.rc_hit_rate"] = float64(hits) / float64(hits+misses)
	}
}

// putPPAC checks a PPAC record and appends its bytes to the digest:
// area, power and wirelength must be finite and positive, and a design
// has MIVs exactly when its configuration is 3-D.
func putPPAC(res *repResult, w *db.Writer, p *core.PPAC, cfg core.ConfigName) {
	if p == nil {
		res.fail("%s: no PPAC", cfg)
		return
	}
	for _, v := range []struct {
		name string
		x    float64
	}{{"footprint", p.FootprintMM2}, {"silicon area", p.SiAreaMM2}, {"power", p.PowerMW}, {"wirelength", p.WLm}} {
		if !(v.x > 0) || math.IsInf(v.x, 0) {
			res.fail("%s/%s: %s = %v", p.Design, cfg, v.name, v.x)
		}
	}
	if (p.MIVs > 0) != (cfg.Tiers() == 2) {
		res.fail("%s/%s: %d MIVs in a %d-tier configuration", p.Design, cfg, p.MIVs, cfg.Tiers())
	}
	core.PutPPAC(w, p)
}

// checkReports fails the repetition for every Error finding of the
// boundary checks.
func checkReports(res *repResult, reports []*check.Report) {
	if len(reports) == 0 {
		res.fail("traced flow ran no boundary check")
	}
	for _, rep := range reports {
		if n := rep.Count(check.Error); n > 0 {
			res.fail("boundary check: %d error findings: %v", n, rep.Err(check.Error))
		}
	}
}

func digest(w *db.Writer) string {
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:])
}
