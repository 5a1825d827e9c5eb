package shard

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/eval"
)

// TestMain doubles as the worker binary: the supervisor re-invokes the
// test executable with SpecEnv set, and this intercept runs the shard
// instead of the test suite — the same re-exec pattern cmd/evalfarm
// uses in production.
func TestMain(m *testing.M) {
	if os.Getenv("SHARD_TEST_DIE") != "" {
		// The always-dying worker of TestFarmFailsAfterMaxRestarts.
		fmt.Fprintln(os.Stderr, "worker: deliberate death for the restart-cap test")
		os.Exit(3)
	}
	if spec, ok, err := SpecFromEnv(); ok {
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(2)
		}
		if err := RunWorker(context.Background(), spec); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerCommand re-invokes this test binary; SpecEnv (set by the
// supervisor) routes it into the TestMain worker intercept.
func workerCommand(string) (*exec.Cmd, error) {
	return exec.Command(os.Args[0]), nil
}

func testOpts() eval.SuiteOptions {
	opt := eval.DefaultSuiteOptions(0.05)
	opt.FmaxIterations = 3
	// CI proves worker-count independence by running this package at
	// FLOW_WORKERS=1 and 8, same as the golden suite.
	if v := os.Getenv("FLOW_WORKERS"); v != "" {
		if fw, err := strconv.Atoi(v); err == nil {
			opt.FlowWorkers = fw
		}
	}
	return opt
}

// renderTables renders all eight paper tables from a suite.
func renderTables(t *testing.T, s *eval.Suite) map[string]string {
	t.Helper()
	t2, err := eval.TableII()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := eval.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	t5, err := eval.TableV(s.Opt.Scale, s.Opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := s.TableVIII()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"table_i":    s.TableI().String(),
		"table_ii":   t2.String(),
		"table_iii":  t3.String(),
		"table_iv":   eval.TableIV().String(),
		"table_v":    t5.String(),
		"table_vi":   s.TableVI().String(),
		"table_vii":  s.TableVII().String(),
		"table_viii": t8.String(),
	}
}

func TestSplit(t *testing.T) {
	units := eval.DefaultSuiteOptions(0.05).MatrixUnits()
	if len(units) != 20 {
		t.Fatalf("default matrix has %d units, want 20", len(units))
	}
	parts := Split(units, 4)
	if len(parts) != 4 {
		t.Fatalf("4-way split yielded %d shards", len(parts))
	}
	var flat []eval.Unit
	for _, p := range parts {
		if len(p) != 5 {
			t.Errorf("uneven shard: %d units", len(p))
		}
		for _, u := range p[1:] {
			if u.Design != p[0].Design {
				t.Errorf("contiguous split mixed designs in one shard: %v", p)
			}
		}
		flat = append(flat, p...)
	}
	for i := range units {
		if flat[i] != units[i] {
			t.Fatalf("split reordered units at %d: %v != %v", i, flat[i], units[i])
		}
	}
	// More shards than units: singletons, never empties.
	parts = Split(units[:3], 8)
	if len(parts) != 3 {
		t.Fatalf("oversplit yielded %d shards, want 3", len(parts))
	}
	for _, p := range parts {
		if len(p) != 1 {
			t.Errorf("oversplit shard has %d units", len(p))
		}
	}
	if Split(nil, 4) != nil {
		t.Error("empty unit list must yield no shards")
	}
}

func TestWorkerSpecRoundTrip(t *testing.T) {
	spec := WorkerSpec{
		Journal: "/tmp/shard-0.db", Shard: 2, Owner: "s2-a3", Attempt: 3,
		Scale: 0.05, Seed: 1, FmaxIterations: 3, Check: "full",
		Designs: []string{"aes"}, Configs: []string{"2D-12T"},
		Units:   []eval.Unit{{Design: designs.AES, Config: core.Config2D12T}},
		Workers: 2, FlowWorkers: 1, Fault: "aes/*/cts=stall",
	}
	raw, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseWorkerSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Journal != spec.Journal || got.Owner != spec.Owner || got.Attempt != spec.Attempt ||
		got.Scale != spec.Scale || got.Fault != spec.Fault || len(got.Units) != 1 ||
		got.Units[0] != spec.Units[0] || got.Check != spec.Check {
		t.Fatalf("round trip: %+v != %+v", got, spec)
	}
	opt, err := got.SuiteOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Checkpoint != spec.Journal || opt.Fault == nil || len(opt.Units) != 1 {
		t.Fatalf("SuiteOptions lost fields: %+v", opt)
	}

	for name, bad := range map[string]WorkerSpec{
		"no journal": {Scale: 0.05, Owner: "x", Units: spec.Units},
		"no scale":   {Journal: "j", Owner: "x", Units: spec.Units},
		"no units":   {Journal: "j", Owner: "x", Scale: 0.05},
		"no owner":   {Journal: "j", Scale: 0.05, Units: spec.Units},
	} {
		raw, err := bad.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseWorkerSpec(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseWorkerSpec("not json"); err == nil {
		t.Error("garbage spec accepted")
	}
}

// TestFarmChaosKillAndResume is the acceptance test of the distributed
// evaluation: four worker processes, one SIGKILLed mid-flow by chaos,
// one wedged by an injected stall until the watchdog kills it — and the
// merged journal still renders every paper table byte-identical to a
// single-process run.
func TestFarmChaosKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process farm over the scale-0.05 suite")
	}
	opt := testOpts()

	// Single-process reference, same options.
	ref, err := eval.RunSuite(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := renderTables(t, ref)

	// Shards are design-contiguous: shard 1 carries aes (stalled via
	// fault injection), shard 3 carries cpu (chaos-SIGKILLed once its
	// journal shows progress).
	dir := t.TempDir()
	farm, err := Run(context.Background(), Options{
		Suite:        opt,
		Dir:          dir,
		Shards:       4,
		StallTimeout: 30 * time.Second,
		PollInterval: 50 * time.Millisecond,
		MaxRestarts:  2,
		Chaos: Chaos{
			Kill:      []int{3},
			FaultSpec: "aes/*/cts=stall",
		},
		Command: workerCommand,
		Log:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	if farm.Restarts < 2 {
		t.Errorf("Restarts = %d, want >= 2 (one killed, one stalled shard)", farm.Restarts)
	}
	if farm.Expiries < 2 {
		t.Errorf("Expiries = %d, want >= 2", farm.Expiries)
	}
	history := farm.LeaseHistory()
	if !strings.Contains(history, "signal: killed") {
		t.Errorf("no SIGKILL attribution in lease history:\n%s", history)
	}
	if !strings.Contains(history, "stalled") {
		t.Errorf("no stall attribution in lease history:\n%s", history)
	}

	// Every result must be checkpoint-restored — the farm reruns
	// nothing while rehydrating the merged journal.
	for d, cfgs := range farm.Suite.Results {
		for c, r := range cfgs {
			if r != nil && !r.Restored {
				t.Errorf("%s/%s was re-run during rehydration", d, c)
			}
		}
	}

	got := renderTables(t, farm.Suite)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s differs between single-process and farm run:\n--- single\n%s\n--- farm\n%s",
				name, w, got[name])
		}
	}

	// The farm report renders and carries the counters.
	rep := farm.Report().String()
	if !strings.Contains(rep, "restart(s)") || !strings.Contains(rep, "quarantine(s)") {
		t.Errorf("farm report missing counters:\n%s", rep)
	}
}

// TestFarmQuarantineAndResume proves the refuse-and-reassign path for a
// journal that fails option-fingerprint validation, then that a second
// farm over the same directory spawns nothing and reuses every result.
func TestFarmQuarantineAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	opt := testOpts()
	opt.Designs = []designs.Name{designs.AES}
	opt.Configs = []core.ConfigName{core.Config2D12T}
	dir := t.TempDir()

	// Poison shard 0's journal: a valid journal written under a
	// different seed — resuming from it would mix incompatible results,
	// so the supervisor must quarantine it, not trust it.
	foreign := opt
	foreign.Seed = 99
	ck, err := eval.OpenCheckpoint(filepath.Join(dir, "shard-0.db"), foreign)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	o := Options{
		Suite:        opt,
		Dir:          dir,
		Shards:       1,
		StallTimeout: 60 * time.Second,
		PollInterval: 50 * time.Millisecond,
		Command:      workerCommand,
		Log:          t.Logf,
	}
	farm, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if farm.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", farm.Quarantines)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0.db.quarantined-1")); err != nil {
		t.Errorf("quarantined journal not preserved: %v", err)
	}
	if !strings.Contains(farm.LeaseHistory(), "quarantine") {
		t.Errorf("no quarantine record in lease history:\n%s", farm.LeaseHistory())
	}
	if r := farm.Suite.Results[designs.AES][core.Config2D12T]; r == nil {
		t.Fatal("quarantined shard's unit missing from merged suite")
	}
	want := farm.Suite.TableI().String()

	// Second farm over the same directory: everything is already in the
	// shard journal, so no worker spawns and no lease expires.
	farm2, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if farm2.Restarts != 0 || farm2.Expiries != 0 || farm2.Quarantines != 0 {
		t.Errorf("resume farm did extra work: restarts=%d expiries=%d quarantines=%d",
			farm2.Restarts, farm2.Expiries, farm2.Quarantines)
	}
	if len(farm2.Shards) != 1 || !strings.Contains(farm2.Shards[0].Outcome, "journal") {
		t.Errorf("resume outcome = %+v, want complete-in-journal", farm2.Shards)
	}
	if got := farm2.Suite.TableI().String(); got != want {
		t.Errorf("resumed farm's Table I drifted:\n%s\nvs\n%s", got, want)
	}
}

// TestFarmFailsAfterMaxRestarts proves a shard that dies on every
// attempt fails the farm with attribution instead of looping forever.
func TestFarmFailsAfterMaxRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	opt := testOpts()
	opt.Designs = []designs.Name{designs.AES}
	opt.Configs = []core.ConfigName{core.Config2D12T}
	dir := t.TempDir()
	_, err := Run(context.Background(), Options{
		Suite:        opt,
		Dir:          dir,
		Shards:       1,
		StallTimeout: 60 * time.Second,
		PollInterval: 50 * time.Millisecond,
		MaxRestarts:  1,
		Command: func(string) (*exec.Cmd, error) {
			// A worker that exits 3 immediately, every attempt: the
			// SHARD_TEST_DIE marker short-circuits TestMain before the
			// worker intercept.
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "SHARD_TEST_DIE=1")
			return cmd, nil
		},
		Log: t.Logf,
	})
	if err == nil {
		t.Fatal("farm succeeded with a worker that always dies")
	}
	if !strings.Contains(err.Error(), "failed after 2 attempt(s)") {
		t.Errorf("error lacks attempt attribution: %v", err)
	}
	if !strings.Contains(err.Error(), "exit 3") {
		t.Errorf("error lacks exit-code attribution: %v", err)
	}
	if !strings.Contains(err.Error(), "deliberate death") {
		t.Errorf("error lacks the worker's stderr tail: %v", err)
	}
}
