package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/sta"
	"repro/internal/tech"
)

func startDaemon(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Options{CacheDir: t.TempDir()})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return lis.Addr().String()
}

// TestPPACMatchesOfflineSuite is the cmd-level acceptance check: flowc
// ppac against a live daemon prints exactly the numbers the offline
// evaluation suite (cmd/ppac's engine) computes for the same unit.
func TestPPACMatchesOfflineSuite(t *testing.T) {
	addr := startDaemon(t)

	var out, errb bytes.Buffer
	code := run([]string{"ppac", "-addr", addr,
		"-design", "ldpc", "-config", "2D-12T",
		"-scale", "0.05", "-seed", "1", "-iters", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("flowc ppac exited %d: %s", code, errb.String())
	}

	s, err := eval.RunSuite(context.Background(), eval.SuiteOptions{
		Scale:          0.05,
		Seed:           1,
		Designs:        []designs.Name{"ldpc"},
		Configs:        []core.ConfigName{core.Config2D12T},
		FmaxIterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Results["ldpc"][core.Config2D12T].PPAC

	text := out.String()
	for _, want := range []string{
		"fmax " + g(s.Fmax["ldpc"]) + " GHz",
		"power_mw " + g(p.PowerMW) + "\n",
		"wns_ns " + g(p.WNS) + "\n",
		"pdp_pj " + g(p.PDPpJ) + "\n",
		"die_cost_uc " + g(p.DieCostMicroC) + "\n",
		"wl_m " + g(p.WLm) + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("flowc ppac output missing %q:\n%s", want, text)
		}
	}
}

// TestSessionScriptMatchesOffline replays a scripted session through
// the CLI and checks the printed incremental WNS against a fresh
// offline analysis of the same mutations.
func TestSessionScriptMatchesOffline(t *testing.T) {
	addr := startDaemon(t)

	script := t.TempDir() + "/session.txt"
	const scriptText = `# flowc session script
timing
move 3 12.5 40    # by instance id
move 9 80 7.25
timing
`
	if err := os.WriteFile(script, []byte(scriptText), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	code := run([]string{"session", "-addr", addr,
		"-design", "ldpc", "-config", "2D-12T",
		"-scale", "0.05", "-seed", "1", "-clock", "1.0",
		"-boundary", "place", "-script", script}, &out, &errb)
	if code != 0 {
		t.Fatalf("flowc session exited %d: %s", code, errb.String())
	}

	// Offline twin: same flow, same mutations, fresh analysis.
	lib := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate("ldpc", lib, designs.Params{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(1.0)
	opt.Seed = 1
	opt.StopAfter = core.StagePlace
	res, err := core.Run(context.Background(), src, core.Config2D12T, opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := serve.TimingConfig(1.0, core.Config2D12T, res.Clock, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref0, err := sta.Analyze(res.Design, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Design.Instances[3].SetLoc(geom.Point{X: 12.5, Y: 40})
	res.Design.Instances[9].SetLoc(geom.Point{X: 80, Y: 7.25})
	ref1, err := sta.Analyze(res.Design, cfg)
	if err != nil {
		t.Fatal(err)
	}

	text := out.String()
	if !strings.Contains(text, "applied 2 mutations") {
		t.Errorf("script did not batch both moves:\n%s", text)
	}
	for i, want := range []string{"wns " + g(ref0.WNS) + " tns " + g(ref0.TNS),
		"wns " + g(ref1.WNS) + " tns " + g(ref1.TNS)} {
		if !strings.Contains(text, want) {
			t.Errorf("timing line %d: output missing %q:\n%s", i, want, text)
		}
	}
}

// TestLoadSubcommand smoke-tests flowc load end to end, including the
// p99 bound path.
func TestLoadSubcommand(t *testing.T) {
	addr := startDaemon(t)

	var out, errb bytes.Buffer
	code := run([]string{"load", "-addr", addr,
		"-sessions", "16", "-concurrency", "8", "-rounds", "2",
		"-scale", "0.05"}, &out, &errb)
	if code != 0 {
		t.Fatalf("flowc load exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "0 errors") {
		t.Errorf("load summary reports errors:\n%s", out.String())
	}

	// An absurdly tight bound must fail the run.
	out.Reset()
	errb.Reset()
	code = run([]string{"load", "-addr", addr,
		"-sessions", "4", "-concurrency", "2", "-rounds", "1",
		"-scale", "0.05", "-p99-bound", "0.000001"}, &out, &errb)
	if code != 1 {
		t.Fatalf("impossible p99 bound exited %d, want 1: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "exceeds bound") {
		t.Errorf("bound failure message missing: %s", errb.String())
	}
}

// TestBadUsage pins the CLI's exit codes.
func TestBadUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"frobnicate"}, &out, &errb); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	if code := run([]string{"ping", "-addr", "127.0.0.1:1"}, &out, &errb); code != 1 {
		t.Errorf("unreachable daemon: exit %d, want 1", code)
	}
}
