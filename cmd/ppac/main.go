// Command ppac runs the paper's full evaluation — every design in every
// configuration at its 2D-12T f_max — and prints Tables I, VI, VII, and
// VIII plus the figure summaries. The per-design f_max searches (whose
// returned probe is the design's 2D-12T flow) and the remaining
// configurations execute on a bounded worker pool; results are identical
// at any worker count.
//
// Usage:
//
//	ppac [-scale 0.25] [-seed 1] [-designs netcard,aes,ldpc,cpu] [-svg dir]
//	     [-workers 0] [-flow-workers 0] [-timeout 0] [-stage-report]
//	     [-check off|fast|full] [-fault spec] [-checkpoint file]
//	     [-retries n] [-resilience] [-resume-from-place dir]
//	     [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-v]
//
// -check runs the design-integrity checker (internal/check) at stage
// boundaries of every flow, f_max probes included; Error-severity findings
// fail the run, and a per-boundary summary table prints after the tables.
//
// -fault arms the deterministic fault-injection harness (internal/fault):
// a comma-separated list of design/config/stage[@occurrence]=class
// injections, e.g. "cpu/Hetero-M3D/eco=corrupt:extraction-cache" or
// "*/*/cts@1=error:retryable". Injections fire in the f_max probes too,
// so @occurrence counts a 2D-12T stage's probe visits. -retries
// re-attempts flows, probes included, that fail with transient errors;
// -checkpoint journals completed flows to a binary evaluation journal so
// an interrupted evaluation resumes without repeating work (designdb
// inspect prints the journal as text); -resilience prints the per-flow
// fault/retry/degradation table.
//
// -resume-from-place splits every flow, the f_max probes included, in two
// at the placement boundary through the binary design database: each
// flow saves its design into the named directory after placement, then a
// second run loads the file and finishes the remaining stages. Results are
// byte-identical to uninterrupted flows; the saved databases stay on
// disk for designdb inspect/verify.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/prof"
	"repro/internal/report"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.25, "design scale (1.0 = paper-size netlists)")
		seed     = flag.Int64("seed", 1, "generation/partitioning seed")
		designL  = flag.String("designs", "", "comma-separated subset of netcard,aes,ldpc,cpu (default all)")
		svgDir   = flag.String("svg", "", "write Fig. 3/4 SVGs to this directory")
		workers  = flag.Int("workers", 0, "concurrent flow jobs (0 = GOMAXPROCS, 1 = serial)")
		flowWork = flag.Int("flow-workers", 0, "intra-flow parallelism of the place/route/STA/CTS kernels (0 = budget against -workers, 1 = serial); results are identical at any value")
		timeout  = flag.Duration("timeout", 0, "abort the whole evaluation after this long, e.g. 5m (0 = no limit)")
		stageRep = flag.Bool("stage-report", false, "print the per-stage wall-time and engine-counter table after the evaluation")
		checkM   = flag.String("check", "off", "design-integrity checks at stage boundaries: off, fast (signoff only), or full; error findings fail the run")
		faultS   = flag.String("fault", "", "fault-injection spec: design/config/stage[@occ]=class[:modifier],... (classes: panic, error, cancel, timeout, corrupt)")
		ckptPath = flag.String("checkpoint", "", "journal completed flows to this file and resume from it on rerun")
		retries  = flag.Int("retries", 1, "attempts per flow for transient failures (1 = no retries)")
		resil    = flag.Bool("resilience", false, "print the per-flow fault/retry/degradation table after the evaluation")
		resume   = flag.String("resume-from-place", "", "save every flow's design database into this directory after placement, then resume it from the file (proves save/load determinism)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the evaluation to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile (pprof \"allocs\") to this file on exit")
		verbose  = flag.Bool("v", false, "log every pipeline stage as it completes")
	)
	flag.Parse()

	sess, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppac:", err)
		os.Exit(2)
	}
	defer func() {
		if err := sess.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "ppac:", err)
		}
	}()

	checkMode, err := core.ParseCheckMode(*checkM)
	if err != nil {
		sess.Stop()
		fmt.Fprintln(os.Stderr, "ppac:", err)
		os.Exit(2)
	}
	plan, err := fault.ParseSpec(*faultS)
	if err != nil {
		sess.Stop()
		fmt.Fprintln(os.Stderr, "ppac:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sink := &eval.LogSink{W: os.Stdout, Stages: *verbose}
	defer sink.Close()
	opt := eval.DefaultSuiteOptions(*scale)
	opt.Seed = *seed
	opt.Workers = *workers
	opt.FlowWorkers = *flowWork
	opt.Check = checkMode
	opt.Events = sink
	opt.Checkpoint = *ckptPath
	opt.ResumeFromPlace = *resume
	if *retries > 1 {
		opt.Retry = flow.DefaultRetryPolicy(*retries)
	}
	opt.Fault = plan
	if *designL != "" {
		opt.Designs = nil
		for _, n := range strings.Split(*designL, ",") {
			opt.Designs = append(opt.Designs, designs.Name(strings.TrimSpace(n)))
		}
	}

	s, err := eval.RunSuite(ctx, opt)
	if err != nil {
		sess.Stop()
		fmt.Fprintln(os.Stderr, "ppac:", err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Println(report.Fig1())
	fmt.Println(s.TableI())
	fmt.Println(s.TableVI())
	fmt.Println(s.TableVII())

	if slices.Contains(opt.Designs, designs.CPU) {
		t8, err := s.TableVIII()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppac: Table VIII:", err)
		} else {
			fmt.Println(t8)
		}
		f3, err := s.Fig3(*svgDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppac: Fig. 3:", err)
		} else {
			fmt.Println(f3)
		}
		f4, err := s.Fig4(*svgDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppac: Fig. 4:", err)
		} else {
			fmt.Println(f4)
		}
	}

	if *stageRep {
		fmt.Println(s.StageReport())
	}
	if *resil {
		fmt.Println(s.ResilienceReport())
	}
	if checkMode != core.CheckOff {
		fmt.Println(s.CheckReport())
	}
}
