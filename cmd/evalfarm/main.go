// Command evalfarm runs the paper's evaluation as a crash-safe farm of
// worker processes (internal/shard): the design×config matrix is split
// into shards, each shard is leased to a worker OS process writing its
// own checkpoint journal, and a supervisor watchdog restarts workers
// that crash or stall. The shard journals merge into one canonical
// journal whose Tables I–VIII are byte-identical to a single-process
// ppac run — the merge refuses divergent duplicates, so the farm is
// also a cross-process determinism check.
//
// Usage:
//
//	evalfarm [-scale 0.1] [-seed 1] [-fmax-iters 3] [-dir evalfarm-work]
//	         [-shards 4] [-procs 0] [-stall-timeout 30s]
//	         [-max-restarts 2] [-workers 0] [-flow-workers 0]
//	         [-check off|fast|full] [-out dir]
//	         [-chaos-kill 1,3] [-chaos-stall 'aes/*/cts'] [-v]
//
// -out renders all eight paper tables into the directory (table_i.txt …
// table_viii.txt, the golden filenames), so CI can diff a chaos-ridden
// farm run byte-for-byte against the committed single-process goldens.
//
// The chaos flags exist for the crash-safety tests and CI: -chaos-kill
// SIGKILLs the named shards once their journal holds work (first
// attempt only), and -chaos-stall arms a stall fault at the given
// design/config/stage site so the watchdog's kill path runs. A farm
// that restarts every killed shard and still renders golden-identical
// tables is the acceptance bar.
//
// The binary re-invokes itself as the worker: when EVALFARM_SPEC is set
// in the environment it runs that shard and exits, touching nothing but
// its own journal.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/shard"
)

func main() {
	// Worker mode: the supervisor set EVALFARM_SPEC in our environment.
	if spec, ok, err := shard.SpecFromEnv(); ok {
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalfarm worker:", err)
			os.Exit(2)
		}
		if err := shard.RunWorker(context.Background(), spec); err != nil {
			fmt.Fprintln(os.Stderr, "evalfarm worker:", err)
			os.Exit(1)
		}
		return
	}

	var (
		scale     = flag.Float64("scale", 0.1, "design scale (1.0 = paper-size netlists)")
		seed      = flag.Int64("seed", 1, "generation/partitioning seed")
		fmaxIters = flag.Int("fmax-iters", 3, "per-design f_max search iterations")
		dir       = flag.String("dir", "evalfarm-work", "working directory for every journal of the farm")
		shards    = flag.Int("shards", 4, "number of shards to split the matrix into")
		procs     = flag.Int("procs", 0, "concurrent worker processes (0 = one per shard)")
		stallTO   = flag.Duration("stall-timeout", 30*time.Second, "kill a worker whose journal stops growing for this long")
		maxRest   = flag.Int("max-restarts", 2, "restarts allowed per shard before the farm fails")
		workers   = flag.Int("workers", 0, "suite workers inside each worker process (0 = GOMAXPROCS)")
		flowWork  = flag.Int("flow-workers", 0, "intra-flow parallelism inside each worker process")
		checkM    = flag.String("check", "off", "design-integrity checks at stage boundaries: off, fast, or full")
		outDir    = flag.String("out", "", "render Tables I-VIII into this directory (golden filenames)")
		chaosKill = flag.String("chaos-kill", "", "comma-separated shard indices to SIGKILL once they show progress (first attempt only)")
		chaosStal = flag.String("chaos-stall", "", "stall site design/config/stage — wedges the matching stage on first attempts until the watchdog kills the worker")
		verbose   = flag.Bool("v", false, "log supervisor events")
	)
	flag.Parse()

	checkMode, err := core.ParseCheckMode(*checkM)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalfarm:", err)
		os.Exit(2)
	}
	var chaos shard.Chaos
	if *chaosKill != "" {
		for _, f := range strings.Split(*chaosKill, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 0 {
				fmt.Fprintf(os.Stderr, "evalfarm: -chaos-kill %q: want non-negative shard indices\n", *chaosKill)
				os.Exit(2)
			}
			chaos.Kill = append(chaos.Kill, n)
		}
	}
	if *chaosStal != "" {
		chaos.FaultSpec = *chaosStal + "=stall"
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalfarm:", err)
		os.Exit(1)
	}

	opt := eval.DefaultSuiteOptions(*scale)
	opt.Seed = *seed
	opt.FmaxIterations = *fmaxIters
	opt.Workers = *workers
	opt.FlowWorkers = *flowWork
	opt.Check = checkMode

	o := shard.Options{
		Suite:        opt,
		Dir:          *dir,
		Shards:       *shards,
		Procs:        *procs,
		StallTimeout: *stallTO,
		MaxRestarts:  *maxRest,
		Chaos:        chaos,
		Command: func(string) (*exec.Cmd, error) {
			return exec.Command(exe), nil
		},
	}
	if *verbose {
		o.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "evalfarm: "+format+"\n", args...)
		}
	}

	farm, err := shard.Run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalfarm:", err)
		os.Exit(1)
	}

	fmt.Println(farm.Report())
	fmt.Println(farm.Suite.ResilienceReport())
	fmt.Printf("farm counters: restarts=%d expiries=%d quarantines=%d\n",
		farm.Restarts, farm.Expiries, farm.Quarantines)

	if *outDir != "" {
		if err := writeTables(farm.Suite, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "evalfarm:", err)
			os.Exit(1)
		}
		fmt.Printf("tables written to %s\n", *outDir)
	}
}

// writeTables renders all eight paper tables under dir with the golden
// test's filenames, so `diff -r` against internal/eval/testdata/golden
// is the byte-identity check.
func writeTables(s *eval.Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t2, err := eval.TableII()
	if err != nil {
		return err
	}
	t3, err := eval.TableIII()
	if err != nil {
		return err
	}
	t5, err := eval.TableV(s.Opt.Scale, s.Opt.Seed)
	if err != nil {
		return err
	}
	t8, err := s.TableVIII()
	if err != nil {
		return err
	}
	renders := []struct {
		name, body string
	}{
		{"table_i.txt", s.TableI().String()},
		{"table_ii.txt", t2.String()},
		{"table_iii.txt", t3.String()},
		{"table_iv.txt", eval.TableIV().String()},
		{"table_v.txt", t5.String()},
		{"table_vi.txt", s.TableVI().String()},
		{"table_vii.txt", s.TableVII().String()},
		{"table_viii.txt", t8.String()},
	}
	for _, r := range renders {
		if err := os.WriteFile(filepath.Join(dir, r.name), []byte(r.body), 0o644); err != nil {
			return err
		}
	}
	return nil
}
