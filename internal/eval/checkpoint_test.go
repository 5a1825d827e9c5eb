package eval

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/designs"
	"repro/internal/flow"
)

func ckptOpts() SuiteOptions {
	opt := DefaultSuiteOptions(0.05)
	opt.FmaxIterations = 3
	return opt
}

// testFlowRecord builds a small but fully populated flow record for
// journal tests; vary freq to make two records provably different.
func testFlowRecord(design designs.Name, cfg core.ConfigName, freq float64) *FlowRecord {
	return &FlowRecord{
		Design: design, Config: cfg,
		PPAC: &core.PPAC{Design: string(design), Config: cfg, FreqGHz: freq,
			PowerMW: 12.5, WNS: -0.031, WLm: 0.25},
		Stages: []flow.StageMetric{{Name: "place", Cells: 1234,
			Stats: map[string]int64{flow.StatCongestionRetries: 1}}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	opt := ckptOpts()

	ck, err := OpenCheckpoint(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	r := testFlowRecord(designs.CPU, core.ConfigHetero, 0.4375)
	r.Degraded = []string{flow.DegradeFullSTA}
	if err := ck.PutFlow(r); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	fmax, cells, ok := ck2.Fmax(designs.CPU)
	if !ok || fmax != 0.4375 || cells != 1234 {
		t.Errorf("fmax record = %v/%d/%v", fmax, cells, ok)
	}
	got, ok := ck2.Flow(designs.CPU, core.ConfigHetero)
	if !ok {
		t.Fatal("flow record missing after reopen")
	}
	if !got.Restored {
		t.Error("a record loaded from the journal must be marked Restored")
	}
	if got.PPAC.PowerMW != 12.5 || got.PPAC.WNS != -0.031 {
		t.Errorf("PPAC floats did not round-trip: %+v", got.PPAC)
	}
	if len(got.Stages) != 1 || got.Stages[0].Stats[flow.StatCongestionRetries] != 1 {
		t.Errorf("stage metrics lost: %+v", got.Stages)
	}
	if len(got.Degraded) != 1 || got.Degraded[0] != flow.DegradeFullSTA {
		t.Errorf("degraded flags lost: %v", got.Degraded)
	}
	if got.Layout != nil {
		t.Error("a restored record must not claim a layout")
	}
	if _, ok := ck2.Flow(designs.AES, core.ConfigHetero); ok {
		t.Error("phantom flow record")
	}
}

func TestCheckpointRefusesOptionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	bad := ckptOpts()
	bad.Seed = 99
	if _, err := OpenCheckpoint(path, bad); err == nil || !strings.Contains(err.Error(), "different suite options") {
		t.Errorf("seed mismatch must be refused, got %v", err)
	}
	narrower := ckptOpts()
	narrower.Designs = []designs.Name{designs.CPU}
	if _, err := OpenCheckpoint(path, narrower); err == nil {
		t.Error("design-list mismatch must be refused")
	}
}

// TestOptionMismatchNamesFields pins the satellite contract: the
// option-mismatch refusal reports exactly which header fields differ,
// with both values, and nothing about fields that agree.
func TestOptionMismatchNamesFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	opt := ckptOpts()
	ck, err := OpenCheckpoint(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	other := opt
	other.Scale = 0.25
	other.Seed = 7
	other.Check = core.CheckFull
	_, err = OpenCheckpoint(path, other)
	if err == nil {
		t.Fatal("mismatched options accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		"scale: file 0.05, run 0.25",
		"seed: file 1, run 7",
		"check mode: file off, run full",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing clause %q", msg, want)
		}
	}
	for _, stray := range []string{"design set", "config set", "fmax iterations", "format version"} {
		if strings.Contains(msg, stray) {
			t.Errorf("error %q names agreeing field %q", msg, stray)
		}
	}

	// A design-set difference is named with both sets.
	narrowed := opt
	narrowed.Designs = []designs.Name{designs.CPU}
	_, err = OpenCheckpoint(path, narrowed)
	if err == nil || !strings.Contains(err.Error(), "design set") {
		t.Errorf("design-set mismatch not named: %v", err)
	}
}

// TestCheckpointResumesTwiceAfterTruncatedAppend is the double-resume
// regression: a kill mid-append leaves a partial final frame, a resumed
// run appends after it, and a second resume must still read every
// complete record. Opening the journal cuts the partial frame off before
// appending, so new frames never follow garbage.
func TestCheckpointResumesTwiceAfterTruncatedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.AES, 99, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.LDPC, 77, 0.625); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatalf("first resume: %v", err)
	}
	if err := ck2.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	ck2.Close()

	ck3, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	defer ck3.Close()
	if _, _, ok := ck3.Fmax(designs.AES); !ok {
		t.Error("record before the truncation lost")
	}
	if _, _, ok := ck3.Fmax(designs.LDPC); ok {
		t.Error("the half-written record must not be served")
	}
	if fmax, cells, ok := ck3.Fmax(designs.CPU); !ok || fmax != 0.4375 || cells != 1234 {
		t.Errorf("record appended on resume = %v/%d/%v", fmax, cells, ok)
	}
	if data, err := os.ReadFile(path); err != nil {
		t.Fatal(err)
	} else if err := VerifyJournal(data); err != nil {
		t.Errorf("resumed journal does not verify: %v", err)
	}
}

// TestCheckpointToleratesTruncatedFinalLine cuts the final record at
// every byte inside its frame: each cut opens, keeps the complete
// records, withholds the partial one, and leaves the file ending at the
// last complete frame.
func TestCheckpointToleratesTruncatedFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.AES, 99, 0.5); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err = OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFlow(testFlowRecord(designs.CPU, core.ConfigHetero, 0.4375)); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(intact) + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(path, ckptOpts())
		if err != nil {
			t.Fatalf("cut at %d/%d: truncated final record must be tolerated: %v", cut, len(full), err)
		}
		_, _, fmaxOK := ck.Fmax(designs.AES)
		_, flowOK := ck.Flow(designs.CPU, core.ConfigHetero)
		ck.Close()
		if !fmaxOK {
			t.Fatalf("cut at %d/%d: intact record before the truncation lost", cut, len(full))
		}
		if flowOK {
			t.Fatalf("cut at %d/%d: the half-written record must not be served", cut, len(full))
		}
		if data, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(data, intact) {
			t.Fatalf("cut at %d/%d: file is %d bytes after open, want the %d complete bytes",
				cut, len(full), len(data), len(intact))
		}
	}
}

// TestCheckpointRejectsMidFileCorruption corrupts a record that has
// complete records after it: the journal is refused, not cut back to
// the corruption, and the file is left as it was.
func TestCheckpointRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.db")
	ck, err := OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.AES, 99, 0.5); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err = OpenCheckpoint(path, ckptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.PutFmax(designs.CPU, 1234, 0.4375); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit of the AES frame, the second-to-last frame: its
	// CRC sits 4 bytes before the CPU frame starts.
	data[len(first)-6] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, err := OpenCheckpoint(path, ckptOpts()); err == nil {
		ck.Close()
		t.Error("corrupt record followed by more records must be rejected")
	}
	if after, err := os.ReadFile(path); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(after, data) {
		t.Error("refused journal was modified")
	}
}

// jsonJournal is a journal in the line-oriented JSON framing earlier
// builds wrote. It is no longer read.
const jsonJournal = `{"kind":"header","version":1,"scale":0.05,"seed":1,"designs":["netcard","aes","ldpc","cpu"],"configs":["2D-9T","2D-12T","M3D-9T","M3D-12T","Hetero-M3D"],"fmaxIterations":3}
{"kind":"fmax","design":"cpu","cells":4321,"fmaxGHz":0.4375}
{"kind":"flow","design":"cpu","config":"Hetero-M3D","ppac":{"Design":"cpu","Config":"Hetero-M3D","FreqGHz":0.4375,"FootprintMM2":0.0125,"SiAreaMM2":0.025,"ChipWidthUM":111.8,"Density":0.68,"WLm":0.25,"MIVs":210,"PowerMW":12.5,"LeakageMW":0.8,"ClockPowerMW":1.9,"WNS":-0.031,"TNS":-1.25,"EffDelayNS":2.3167,"PDPpJ":28.96,"DieCostMicroC":4.2,"CostPerCm2":168,"PPC":8.33,"Cells":4321,"Clock":null,"CutSize":140,"Refinement":"hetero flow, cut=140, preassigned=12"},"stages":[{"Name":"place","Wall":1000000,"Cells":4321,"Stats":{"congestion_retries":1}}],"degraded":["full-sta"]}
`

// TestJSONJournalRefused pins that every journal reader — resume,
// verify and inspect — refuses a journal it cannot resume and leaves it
// untouched, rather than restarting or skipping over it: a line-oriented
// JSON journal, and a binary journal holding the lease frames the removed
// shard farm wrote.
func TestJSONJournalRefused(t *testing.T) {
	lease, err := db.AppendFrame(testJournal(t), db.TagLease, []byte("s0-a1 grant"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		journal []byte
		refused func(error) bool
	}{
		{"json", []byte(jsonJournal), func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "not an evaluation journal")
		}},
		{"lease", lease, func(err error) bool {
			return errors.Is(err, ErrFarmJournal) && strings.Contains(err.Error(), "evalfarm")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "suite.ckpt")
			if err := os.WriteFile(path, tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(what string, err error) {
				t.Helper()
				if !tc.refused(err) {
					t.Errorf("%s: want the %s journal refused, got %v", what, tc.name, err)
				}
				if data, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(data, tc.journal) {
					t.Errorf("%s: refused journal was modified (%v)", what, rerr)
				}
			}
			ck, err := OpenCheckpoint(path, ckptOpts())
			if ck != nil {
				ck.Close()
			}
			check("OpenCheckpoint", err)
			check("VerifyJournal", VerifyJournal(tc.journal))
			_, err = JournalLines(tc.journal)
			check("JournalLines", err)
		})
	}
}

// killSink cancels the suite's context after n config completions — the
// "kill" half of the kill-and-resume proof.
type killSink struct {
	mu     sync.Mutex
	n      int
	cancel context.CancelFunc
}

func (k *killSink) StageStart(design, config, stage string)                             {}
func (k *killSink) StageDone(design, config, stage string, m flow.StageMetric, e error) {}
func (k *killSink) FmaxDone(design string, cells int, fmaxGHz float64)                  {}
func (k *killSink) ConfigDone(design string, config core.ConfigName, p *core.PPAC) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.n--
	if k.n == 0 {
		k.cancel()
	}
}

// killChildEnv carries the journal path to the child process of
// TestKillAndResume/sigkill: set, the test runs the suite into that
// journal until the parent SIGKILLs it.
const killChildEnv = "EVAL_KILL_CHILD_JOURNAL"

// TestKillAndResume proves that a suite which dies mid-run and is rerun
// from its checkpoint renders Tables I–VIII byte-identical to an
// uninterrupted run. The first run dies either by context cancellation
// in this process or by SIGKILL of a child process running the suite —
// the death of `ppac -checkpoint` that rerunning it recovers from.
func TestKillAndResume(t *testing.T) {
	if path := os.Getenv(killChildEnv); path != "" {
		opt := killOpts(t, path)
		_, err := RunSuite(context.Background(), opt)
		t.Fatalf("child suite ended (%v) before the parent killed it", err)
	}
	ref := testSuite(t) // the uninterrupted reference (no checkpoint at all)
	for _, tc := range []struct {
		name string
		kill func(t *testing.T, path string)
	}{
		{"cancel", killByCancel},
		{"sigkill", killBySignal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "suite.ckpt")
			tc.kill(t, path) // phase 1: run with a checkpoint and die after three flows finish
			if flows := journalFlows(path); flows < 3 {
				t.Fatalf("checkpoint holds %d flows after the kill, want >= 3", flows)
			}

			// Phase 2: resume with the same options.
			s, err := RunSuite(context.Background(), killOpts(t, path))
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			restored := 0
			for _, cfgs := range s.Results {
				for _, r := range cfgs {
					if r != nil && r.Restored {
						restored++
					}
				}
			}
			if restored < 3 {
				t.Errorf("resume restored %d flows, want >= 3", restored)
			}

			// The proof: every table is byte-identical.
			got, want := tableRenders(t, s), tableRenders(t, ref)
			for _, name := range []string{"table_i.txt", "table_ii.txt", "table_iii.txt", "table_iv.txt",
				"table_v.txt", "table_vi.txt", "table_vii.txt", "table_viii.txt"} {
				if got[name] != want[name] {
					t.Errorf("%s diverged after resume:\n%s", name, renderDiff(want[name], got[name]))
				}
			}

			// Figures degrade gracefully on restored records instead of
			// failing, and Fig. 4's critical-path lines survive the resume.
			if f3, err := s.Fig3(""); err != nil {
				t.Errorf("Fig3 on resumed suite: %v", err)
			} else if !strings.Contains(f3, "restored from checkpoint") && !strings.Contains(f3, "tier-1") {
				t.Errorf("Fig3 output unexpected:\n%s", f3)
			}
			wantPaths := criticalPathLines(t, ref)
			if len(wantPaths) != 2 {
				t.Fatalf("reference Fig. 4 has %d critical-path lines, want 2", len(wantPaths))
			}
			if got := criticalPathLines(t, s); !slices.Equal(got, wantPaths) {
				t.Errorf("resumed Fig. 4 critical paths:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(wantPaths, "\n"))
			}

			// A third run with everything checkpointed runs zero flows and
			// still matches.
			s3, err := RunSuite(context.Background(), killOpts(t, path))
			if err != nil {
				t.Fatal(err)
			}
			if got := s3.TableVII().String(); got != ref.TableVII().String() {
				t.Error("fully-restored suite diverged")
			}
			for _, cfgs := range s3.Results {
				for _, r := range cfgs {
					if r == nil || !r.Restored {
						t.Fatal("fully-checkpointed suite should restore every flow")
					}
				}
			}
			if got := criticalPathLines(t, s3); !slices.Equal(got, wantPaths) {
				t.Errorf("fully-restored Fig. 4 critical paths:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(wantPaths, "\n"))
			}
			if s3.ResilienceReport() == nil {
				t.Error("resilience report missing")
			}
		})
	}
}

// criticalPathLines returns the critical-path lines of s's Fig. 4.
func criticalPathLines(t *testing.T, s *Suite) []string {
	t.Helper()
	f4, err := s.Fig4("")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(f4, "\n") {
		if strings.Contains(l, "critical path:") {
			lines = append(lines, l)
		}
	}
	return lines
}

// killOpts are the checkpointed suite options of TestKillAndResume, at
// the FLOW_WORKERS intra-flow parallelism when it is set.
func killOpts(t *testing.T, path string) SuiteOptions {
	t.Helper()
	opt := ckptOpts()
	opt.Checkpoint = path
	fw, err := envFlowWorkers()
	if err != nil {
		t.Fatal(err)
	}
	opt.FlowWorkers = fw
	return opt
}

// killByCancel runs the suite in this process and cancels its context
// once three flows have finished.
func killByCancel(t *testing.T, path string) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := killOpts(t, path)
	opt.Events = &killSink{n: 3, cancel: cancel}
	if _, err := RunSuite(ctx, opt); err == nil {
		t.Fatal("killed run should report an error")
	}
}

// killBySignal re-executes the test binary as a child that runs the
// suite into the journal, polls the journal until it holds three
// complete flow frames, and SIGKILLs the child: no deferred function,
// no flush and no close runs in it.
func killBySignal(t *testing.T, path string) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillAndResume$", "-test.count=1")
	cmd.Env = append(os.Environ(), killChildEnv+"="+path)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		cmd.Process.Kill()
		<-exited
	}()
	deadline := time.After(5 * time.Minute)
	for flows := 0; flows < 3; flows = journalFlows(path) {
		select {
		case err := <-exited:
			exited <- err
			t.Fatalf("child exited (%v) with %d flows journaled:\n%s", err, flows, stderr.Bytes())
		case <-deadline:
			t.Fatalf("child journaled %d flows in 5m", flows)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err := <-exited
	exited <- err
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child did not die by SIGKILL: %v\n%s", err, stderr.Bytes())
	}
}

// journalFlows counts the complete flow frames in the journal at path,
// as resume would load them (0 while the file does not parse yet).
func journalFlows(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	_, recs, _, err := parseCheckpoint(data)
	if err != nil {
		return 0
	}
	n := 0
	for _, r := range recs {
		if r.flow != nil {
			n++
		}
	}
	return n
}
