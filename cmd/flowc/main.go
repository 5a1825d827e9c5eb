// Command flowc is the wire-protocol client for cmd/flowd.
//
// Usage:
//
//	flowc ping    -addr host:port
//	flowc ppac    -addr host:port [-design ldpc] [-config 2D-12T]
//	              [-scale 0.25] [-seed 1] [-iters 0] [-events]
//	flowc session -addr host:port [-design ldpc] [-config 2D-12T]
//	              [-scale 0.25] [-seed 1] [-clock 1.0] [-boundary place]
//	              [-script file]
//	flowc load    -addr host:port [-sessions 500] [-concurrency 32]
//	              [-rounds 3] [-p99-bound ms]
//
// session opens an interactive session and executes a mutation/timing
// script (from -script, or stdin when omitted), one command per line:
//
//	move <id|name> <x> <y>    # place an instance at (x, y) µm
//	tier <id|name> <t>        # move an instance to tier t
//	timing                    # incremental WNS/TNS query
//
// load drives the loopback load harness and optionally writes its
// latency distributions as a JSON file; -p99-bound fails
// the run (exit 1) if any operation's p99 exceeds the bound, which is
// how CI smoke-tests the daemon under concurrency.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "flowc: usage: flowc ping|ppac|session|load [flags]")
		return 2
	}
	var err error
	switch args[0] {
	case "ping":
		err = runPing(args[1:], stdout)
	case "ppac":
		err = runPPAC(args[1:], stdout)
	case "session":
		err = runSession(args[1:], stdout)
	case "load":
		err = runLoad(args[1:], stdout)
	default:
		fmt.Fprintf(stderr, "flowc: unknown subcommand %q (want ping, ppac, session, or load)\n", args[0])
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "flowc:", err)
		return 1
	}
	return 0
}

// g formats a float the way every table in this repo does: shortest
// round-trip representation, no fixed precision.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func runPing(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flowc ping", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9173", "daemon address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := serve.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	start := time.Now()
	if err := cl.Ping(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pong from %s in %v\n", *addr, time.Since(start).Round(time.Microsecond))
	return nil
}

func runPPAC(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flowc ppac", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:9173", "daemon address")
		design = fs.String("design", "ldpc", "design name")
		config = fs.String("config", "2D-12T", "implementation configuration")
		scale  = fs.Float64("scale", 0.25, "design scale")
		seed   = fs.Int64("seed", 1, "generation seed")
		iters  = fs.Int("iters", 0, "f_max search iterations (0 = default)")
		events = fs.Bool("events", false, "stream stage events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl, err := serve.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	var onEvent func(*serve.Event)
	if *events {
		onEvent = func(ev *serve.Event) { printEvent(stdout, ev) }
	}
	res, err := cl.RunPPAC(&serve.PPACRequest{
		Design:         *design,
		Config:         *config,
		Scale:          *scale,
		Seed:           *seed,
		FmaxIterations: int32(*iters),
		Events:         *events,
	}, onEvent)
	if err != nil {
		return err
	}
	p := res.PPAC
	fmt.Fprintf(stdout, "%s/%s @ %s GHz (fmax %s GHz)\n", p.Design, p.Config, g(p.FreqGHz), g(res.FmaxGHz))
	fmt.Fprintf(stdout, "footprint_mm2 %s\nsi_area_mm2 %s\ndensity %s\nwl_m %s\nmivs %d\n",
		g(p.FootprintMM2), g(p.SiAreaMM2), g(p.Density), g(p.WLm), p.MIVs)
	fmt.Fprintf(stdout, "power_mw %s\nleakage_mw %s\nclock_power_mw %s\n",
		g(p.PowerMW), g(p.LeakageMW), g(p.ClockPowerMW))
	fmt.Fprintf(stdout, "wns_ns %s\ntns_ns %s\neff_delay_ns %s\npdp_pj %s\n",
		g(p.WNS), g(p.TNS), g(p.EffDelayNS), g(p.PDPpJ))
	fmt.Fprintf(stdout, "die_cost_uc %s\ncost_per_cm2 %s\n", g(p.DieCostMicroC), g(p.CostPerCm2))
	return nil
}

func printEvent(stdout io.Writer, ev *serve.Event) {
	switch ev.Kind {
	case serve.EvStageStart:
		fmt.Fprintf(stdout, "# %s/%s: %s...\n", ev.Design, ev.Config, ev.Stage)
	case serve.EvStageDone:
		if ev.Err != "" {
			fmt.Fprintf(stdout, "# %s/%s: %s FAILED: %s\n", ev.Design, ev.Config, ev.Stage, ev.Err)
		} else {
			fmt.Fprintf(stdout, "# %s/%s: %s done in %v (%d cells)\n",
				ev.Design, ev.Config, ev.Stage, ev.Wall.Round(time.Millisecond), ev.Cells)
		}
	case serve.EvFmaxDone:
		fmt.Fprintf(stdout, "# %s: fmax %s GHz (%d cells)\n", ev.Design, g(ev.Value), ev.Cells)
	case serve.EvConfigDone:
		fmt.Fprintf(stdout, "# %s/%s: evaluation complete\n", ev.Design, ev.Config)
	}
}

func runSession(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flowc session", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9173", "daemon address")
		design   = fs.String("design", "ldpc", "design name")
		config   = fs.String("config", "2D-12T", "implementation configuration")
		scale    = fs.Float64("scale", 0.25, "design scale")
		seed     = fs.Int64("seed", 1, "generation seed")
		clock    = fs.Float64("clock", 1.0, "clock frequency in GHz")
		boundary = fs.String("boundary", "place", "flow stage the session opens at")
		script   = fs.String("script", "", "script file (default: stdin)")
		events   = fs.Bool("events", false, "stream stage events while opening")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var src io.Reader = os.Stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}

	cl, err := serve.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	var onEvent func(*serve.Event)
	if *events {
		onEvent = func(ev *serve.Event) { printEvent(stdout, ev) }
	}
	info, err := cl.Open(&serve.OpenRequest{
		Design:   *design,
		Config:   *config,
		Scale:    *scale,
		Seed:     *seed,
		ClockGHz: *clock,
		Boundary: *boundary,
		Events:   *events,
	}, onEvent)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "session %d: %s/%s at %s, %d cells, %d nets, clock %s GHz\n",
		info.ID, *design, *config, *boundary, info.Cells, info.Nets, g(info.ClockGHz))

	return runScript(cl, src, stdout)
}

// runScript executes session commands line by line, batching
// consecutive mutations into one atomic MUTS request per flush point
// (a timing command or end of script).
func runScript(cl *serve.Client, src io.Reader, stdout io.Writer) error {
	var pending []serve.Mutation
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		res, err := cl.Mutate(pending)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "applied %d mutations\n", res.Applied)
		pending = pending[:0]
		return nil
	}
	target := func(tok string) serve.Mutation {
		if id, err := strconv.ParseInt(tok, 10, 32); err == nil {
			return serve.Mutation{ID: int32(id)}
		}
		return serve.Mutation{ID: -1, Name: tok}
	}

	sc := bufio.NewScanner(src)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(strings.SplitN(sc.Text(), "#", 2)[0])
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "move":
			if len(fields) != 4 {
				return fmt.Errorf("line %d: usage: move <id|name> <x> <y>", line)
			}
			m := target(fields[1])
			m.Kind = serve.MutSetLoc
			var err error
			if m.X, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			if m.Y, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			pending = append(pending, m)
		case "tier":
			if len(fields) != 3 {
				return fmt.Errorf("line %d: usage: tier <id|name> <t>", line)
			}
			m := target(fields[1])
			m.Kind = serve.MutSetTier
			tv, err := strconv.ParseUint(fields[2], 10, 8)
			if err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			m.Tier = uint8(tv)
			pending = append(pending, m)
		case "timing":
			if err := flush(); err != nil {
				return err
			}
			tr, err := cl.Timing()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wns %s tns %s hold_wns %s endpoints %d failing %d (update: %d full, %d incremental, %d nodes)\n",
				g(tr.WNS), g(tr.TNS), g(tr.HoldWNS), tr.Endpoints, tr.FailingEndpoints,
				tr.FullUpdates, tr.IncrementalUpdates, tr.NodesReevaluated)
		default:
			return fmt.Errorf("line %d: unknown command %q (want move, tier, or timing)", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

func runLoad(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flowc load", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9173", "daemon address")
		sessions = fs.Int("sessions", 500, "total session lifecycles")
		conc     = fs.Int("concurrency", 32, "sessions in flight at once")
		rounds   = fs.Int("rounds", 3, "mutate+timing rounds per session")
		design   = fs.String("design", "ldpc", "design name")
		config   = fs.String("config", "2D-12T", "implementation configuration")
		scale    = fs.Float64("scale", 0.05, "design scale")
		seed     = fs.Int64("seed", 1, "generation seed")
		boundary = fs.String("boundary", "place", "session boundary stage")
		bound    = fs.Float64("p99-bound", 0, "fail if any op's p99 exceeds this many ms (0 = no bound)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := serve.RunLoad(context.Background(), serve.LoadOptions{
		Addr:        *addr,
		Sessions:    *sessions,
		Concurrency: *conc,
		Rounds:      *rounds,
		Design:      *design,
		Config:      *config,
		Scale:       *scale,
		Seed:        *seed,
		Boundary:    *boundary,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Summary())

	if rep.Errors > 0 {
		return fmt.Errorf("%d protocol errors; first: %s", rep.Errors, strings.Join(rep.FirstErrors, "; "))
	}
	if *bound > 0 {
		for _, op := range []struct {
			name string
			s    serve.LatencyStats
		}{{"open", rep.Open}, {"mutate", rep.Mutate}, {"timing", rep.Timing}, {"close", rep.Close}} {
			if p99 := float64(op.s.P99.Microseconds()) / 1000; p99 > *bound {
				return fmt.Errorf("%s p99 %.2fms exceeds bound %.2fms", op.name, p99, *bound)
			}
		}
	}
	return nil
}
