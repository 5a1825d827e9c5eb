// Command hetero3d implements one of the paper's benchmark designs in one
// or more chosen configurations (2D-9T, 2D-12T, M3D-9T, M3D-12T,
// Hetero-M3D) and prints the PPAC record(s), optionally with the
// Table VIII-style deep dive, per-stage timing, and layout SVGs.
//
// Usage:
//
//	hetero3d -design cpu -config Hetero-M3D -scale 0.1 [-clock 1.2]
//	         [-deep] [-svg dir] [-verilog out.v] [-stage-report]
//	         [-check off|fast|full] [-fault spec]
//	         [-retries n] [-workers 0] [-timeout 0]
//	         [-save-design out.db] [-save-after place,cts] [-stop-after place]
//	         [-load-design in.db] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -config also accepts a comma-separated list or "all"; multiple
// configurations run concurrently on a worker pool bounded by -workers.
// The deep dive, SVG, and Verilog outputs apply when exactly one
// configuration is requested.
//
// -save-design writes the binary design database (internal/db) at the
// boundaries named by -save-after (default "place"); -load-design resumes
// a flow from such a file, skipping the saved stages, and finishes
// byte-identical to the uninterrupted run. -stop-after truncates the flow
// after the named stage — combine with -save-design to produce a snapshot
// without paying for the full flow. All three apply to single-config runs
// (a database records exactly one design in one configuration); inspect
// or verify the files with the designdb tool.
//
// -fault arms the deterministic fault-injection harness (internal/fault),
// e.g. -fault "cpu/Hetero-M3D/eco=corrupt:extraction-cache" or
// "*/*/cts=panic"; -retries re-attempts flows that fail with transient
// (retryable) errors under capped exponential backoff.
//
// When -clock is omitted the tool first sweeps the design's 2D-12T f_max
// and uses it as the target, exactly like the paper's methodology.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/tech"
)

func main() {
	var (
		design   = flag.String("design", "cpu", "design: netcard, aes, ldpc, cpu")
		config   = flag.String("config", string(core.ConfigHetero), "configuration(s): comma-separated subset of 2D-9T, 2D-12T, M3D-9T, M3D-12T, Hetero-M3D, or \"all\"")
		scale    = flag.Float64("scale", 0.1, "design scale (1.0 = paper-size netlists)")
		clock    = flag.Float64("clock", 0, "target clock in GHz (0 = sweep 2D-12T f_max first)")
		seed     = flag.Int64("seed", 1, "generation/partitioning seed")
		deep     = flag.Bool("deep", false, "print the Table VIII-style deep dive (single config)")
		svgDir   = flag.String("svg", "", "write per-tier layout SVGs to this directory (single config)")
		vlog     = flag.String("verilog", "", "write the implemented netlist (with physical attributes) to this file (single config)")
		workers  = flag.Int("workers", 0, "concurrent flow jobs for multi-config runs (0 = GOMAXPROCS)")
		flowWork = flag.Int("flow-workers", 0, "intra-flow parallelism of the place/route/STA/CTS kernels (0 = budget against -workers, 1 = serial); results are identical at any value")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long, e.g. 2m (0 = no limit)")
		stageRep = flag.Bool("stage-report", false, "print each flow's per-stage wall-time and engine-counter table")
		checkM   = flag.String("check", "off", "design-integrity checks at stage boundaries: off, fast (signoff only), or full; error findings fail the run")
		faultS   = flag.String("fault", "", "fault-injection spec: design/config/stage[@occ]=class[:modifier],... (classes: panic, error, cancel, timeout, corrupt)")
		retries  = flag.Int("retries", 1, "attempts per flow for transient failures (1 = no retries)")
		saveDB   = flag.String("save-design", "", "write the binary design database to this file at each -save-after boundary (single config)")
		saveAt   = flag.String("save-after", "", "comma-separated save boundaries for -save-design: map, place, legalize, cts, signoff (default place)")
		loadDB   = flag.String("load-design", "", "resume the flow from a design database written by -save-design (single config)")
		stopAt   = flag.String("stop-after", "", "truncate the flow after this stage, e.g. place (single config)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile (pprof \"allocs\") to this file on exit")
	)
	flag.Parse()

	sess, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetero3d:", err)
		os.Exit(2)
	}
	defer func() {
		if err := sess.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "hetero3d:", err)
		}
	}()

	checkMode, err := core.ParseCheckMode(*checkM)
	if err != nil {
		sess.Stop()
		fmt.Fprintln(os.Stderr, "hetero3d:", err)
		os.Exit(2)
	}
	plan, err := fault.ParseSpec(*faultS)
	if err != nil {
		sess.Stop()
		fmt.Fprintln(os.Stderr, "hetero3d:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	dbio := designIO{save: *saveDB, saveAfter: *saveAt, load: *loadDB, stop: *stopAt}
	if err := run(ctx, *design, *config, *scale, *clock, *seed, *workers, *flowWork, *deep, *stageRep, checkMode, plan, *retries, *svgDir, *vlog, dbio); err != nil {
		sess.Stop()
		fmt.Fprintln(os.Stderr, "hetero3d:", err)
		os.Exit(1)
	}
}

// designIO carries the save/load/stop flags of the binary design
// database into the flow options.
type designIO struct {
	save, saveAfter, load, stop string
}

func (d designIO) active() bool {
	return d.save != "" || d.load != "" || d.stop != ""
}

func parseConfigs(s string) []core.ConfigName {
	if strings.TrimSpace(s) == "all" {
		return append([]core.ConfigName{}, core.AllConfigs...)
	}
	var out []core.ConfigName
	for _, c := range strings.Split(s, ",") {
		out = append(out, core.ConfigName(strings.TrimSpace(c)))
	}
	return out
}

func run(ctx context.Context, design, config string, scale, clock float64, seed int64, workers, flowWorkers int, deep, stageRep bool, checkMode core.CheckMode, plan *fault.Plan, retries int, svgDir, vlog string, dbio designIO) error {
	cfgs := parseConfigs(config)
	if dbio.active() && len(cfgs) != 1 {
		return fmt.Errorf("-save-design/-load-design/-stop-after apply to a single configuration, got %d", len(cfgs))
	}

	lib12 := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate(designs.Name(design), lib12, designs.Params{Scale: scale, Seed: seed})
	if err != nil {
		return err
	}
	stats := src.ComputeStats()
	fmt.Printf("design %s: %d cells, %d macros, %d nets\n", design, stats.Cells, stats.Macros, stats.Nets)

	// -flow-workers 0 budgets intra-flow workers against the jobs that
	// run at once, so outer × inner stays within the machine: the f_max
	// sweep is one job, the configuration fan-out min(workers, configs).
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	budget := func(outer int) int {
		if flowWorkers > 0 {
			return flowWorkers
		}
		return par.Budget(runtime.GOMAXPROCS(0), outer)
	}

	if clock <= 0 {
		fmt.Println("sweeping 2D-12T f_max...")
		o := core.DefaultOptions(1)
		o.Seed = seed
		o.FlowWorkers = budget(1)
		clock, _, err = core.FindFmax(ctx, core.DefaultFmaxOptions(), core.FlowProbe(src, core.Config2D12T, o))
		if err != nil {
			return err
		}
		fmt.Printf("f_max(2D-12T) = %.3f GHz\n", clock)
	}

	// Implement every requested configuration, fanning out on a worker
	// pool when more than one is asked for. Flows are deterministic, so
	// the printed results do not depend on the worker count.
	cfgWorkers := budget(min(workers, len(cfgs)))
	policy := flow.NoRetry
	if retries > 1 {
		policy = flow.DefaultRetryPolicy(retries)
	}
	results := make([]*core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	par.ParallelFor(workers, len(cfgs), func(i int) {
		opt := core.DefaultOptions(clock)
		opt.Seed = seed
		opt.Check = checkMode
		opt.FlowWorkers = cfgWorkers
		opt.SaveDesign = dbio.save
		opt.SaveAfter = dbio.saveAfter
		opt.LoadDesign = dbio.load
		opt.StopAfter = dbio.stop
		opt.Fault = plan
		results[i], _, errs[i] = core.RunWithRetry(ctx, src, cfgs[i], opt, policy)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", cfgs[i], err)
		}
	}

	for i, cfg := range cfgs {
		if err := printResult(design, string(cfg), clock, results[i]); err != nil {
			return err
		}
		if stageRep {
			st := report.StageTable(fmt.Sprintf("Pipeline stages — %s in %s", design, cfg), results[i].Stages)
			if err := st.Render(os.Stdout); err != nil {
				return err
			}
		}
		printHealth(string(cfg), results[i])
		if checkMode != core.CheckOff {
			ct := report.CheckTable(fmt.Sprintf("Design-integrity checks — %s in %s", design, cfg), results[i].Checks)
			if err := ct.Render(os.Stdout); err != nil {
				return err
			}
		}
	}

	if len(cfgs) != 1 {
		return nil
	}
	return singleConfigExtras(design, string(cfgs[0]), results[0], deep, svgDir, vlog)
}

func printResult(design, config string, clock float64, r *core.Result) error {
	p := r.PPAC
	if p == nil {
		// The flow was truncated by -stop-after before signoff: there is
		// no PPAC record, only the stages that ran (and a saved database,
		// if -save-design was given).
		fmt.Printf("flow stopped after %q — no PPAC record (%d stage(s) ran)\n",
			r.Stages[len(r.Stages)-1].Name, len(r.Stages))
		return nil
	}
	t := report.NewTable(fmt.Sprintf("PPAC — %s in %s @ %.3f GHz", design, config, clock), "Metric", "Value")
	t.AddRowf("Si area", fmt.Sprintf("%.4f mm²", p.SiAreaMM2))
	t.AddRowf("Footprint", fmt.Sprintf("%.4f mm² (%.0f µm wide)", p.FootprintMM2, p.ChipWidthUM))
	t.AddRowf("Density", fmt.Sprintf("%.0f %%", p.Density*100))
	t.AddRowf("Wirelength", fmt.Sprintf("%.3f m", p.WLm))
	t.AddRowf("MIVs", fmt.Sprint(p.MIVs))
	t.AddRowf("Total power", fmt.Sprintf("%.2f mW (leak %.2f, clock %.2f)", p.PowerMW, p.LeakageMW, p.ClockPowerMW))
	t.AddRowf("WNS / TNS", fmt.Sprintf("%+.3f / %+.2f ns", p.WNS, p.TNS))
	t.AddRowf("Timing met", fmt.Sprint(p.TimingMet()))
	t.AddRowf("Effective delay", fmt.Sprintf("%.3f ns", p.EffDelayNS))
	t.AddRowf("PDP", fmt.Sprintf("%.2f pJ", p.PDPpJ))
	t.AddRowf("Die cost", fmt.Sprintf("%.3f ×10⁻⁶C'", p.DieCostMicroC))
	t.AddRowf("Cost per cm²", fmt.Sprintf("%.1f ×10⁻⁶C'", p.CostPerCm2))
	t.AddRowf("PPC", fmt.Sprintf("%.3f GHz/(W·10⁻⁶C')", p.PPC))
	t.AddRowf("Flow notes", p.Refinement)
	return t.Render(os.Stdout)
}

// printHealth reports an eventful flow's robustness outcome: injected
// faults, degraded-mode completion, and retry attempts. Clean flows print
// nothing (and the CI fault-injection smoke greps for these lines).
func printHealth(config string, r *core.Result) {
	tot := flow.Totals(r.Stages)
	faults, reruns, panics := tot[flow.StatFaultsInjected], tot[flow.StatStageReruns], tot[flow.StatPanicsRecovered]
	if faults == 0 && reruns == 0 && panics == 0 && r.Attempts <= 1 && len(r.Degraded) == 0 {
		return
	}
	fmt.Printf("resilience [%s]: %d fault(s) injected, %d stage re-run(s), %d panic(s) recovered, %d attempt(s), degradations: %d %v\n",
		config, faults, reruns, panics, r.Attempts, len(r.Degraded), r.Degraded)
}

func singleConfigExtras(design, config string, r *core.Result, deep bool, svgDir, vlog string) error {
	if r.PPAC == nil {
		// A -stop-after run has no signoff state to dive into or draw.
		return nil
	}
	if deep {
		dd, err := core.DeepAnalyze(r)
		if err != nil {
			return err
		}
		dt := report.NewTable("Deep dive (Table VIII metrics)", "Metric", "Value")
		dt.AddRowf("Clock buffers", fmt.Sprintf("%d (top %d / bottom %d)", dd.ClockBuffers, dd.TopBuffers, dd.BottomBuffers))
		dt.AddRowf("Clock buffer area", fmt.Sprintf("%.0f µm²", dd.ClockBufferAreaUM2))
		dt.AddRowf("Clock max latency / skew", fmt.Sprintf("%.3f / %.3f ns", dd.ClockMaxLatencyNS, dd.ClockMaxSkewNS))
		dt.AddRowf("100-path avg skew", fmt.Sprintf("%+.4f ns", dd.AvgSkew100NS))
		dt.AddRowf("Critical path", fmt.Sprintf("%d cells (%d top / %d bottom), %d MIVs",
			dd.PathCells, dd.TopCells, dd.BottomCells, dd.PathMIVs))
		dt.AddRowf("Path delay", fmt.Sprintf("%.3f ns (cell %.3f, wire %.3f)", dd.PathDelayNS, dd.CellDelayNS, dd.WireDelayNS))
		dt.AddRowf("Avg stage delay top/bottom", fmt.Sprintf("%.1f / %.1f ps", dd.AvgTopDelayNS*1000, dd.AvgBotDelayNS*1000))
		if dd.HasMacros {
			dt.AddRowf("Memory net latency in/out", fmt.Sprintf("%.2f / %.2f ps", dd.MemInLatencyPS, dd.MemOutLatencyPS))
			dt.AddRowf("Memory net switching", fmt.Sprintf("%.2f µW", dd.MemNetSwitchUW))
		}
		if err := dt.Render(os.Stdout); err != nil {
			return err
		}
	}

	if vlog != "" {
		f, err := os.Create(vlog)
		if err != nil {
			return err
		}
		if err := netlist.WriteVerilog(f, r.Design); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", vlog)
	}

	if svgDir != "" {
		tiers := core.ConfigName(config).Tiers()
		for ti := 0; ti < tiers; ti++ {
			svg := &report.LayoutSVG{Design: r.Design, Outline: r.Outline, Tier: tech.Tier(ti), Tiers: tiers}
			name := filepath.Join(svgDir, fmt.Sprintf("%s_%s_tier%d.svg", design, config, ti))
			if err := os.MkdirAll(svgDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(name)
			if err != nil {
				return err
			}
			if err := svg.Write(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Println("wrote", name)

			hist, err := place.DensityMap(r.Design, r.Outline, tech.Tier(ti), tiers, 48, 24)
			if err != nil {
				return err
			}
			fmt.Printf("tier %d density map:\n%s", ti, report.AsciiDensity(hist))
		}
	}
	return nil
}
