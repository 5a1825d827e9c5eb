package eval

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/flow"
)

// TestGoldenTablesResumed is the design-database acceptance proof: the
// whole golden evaluation re-run with every configuration flow split in
// two at the placement boundary — save the binary design database, then
// load it and run the remaining stages — must render Tables I–VIII
// byte-identical to the committed goldens produced by uninterrupted
// flows. FLOW_WORKERS applies here too, so CI proves save-at-1/
// resume-at-8 equivalence as well.
func TestGoldenTablesResumed(t *testing.T) {
	if testing.Short() {
		t.Skip("full scale-0.1 evaluation suite, twice through placement")
	}
	opt := DefaultSuiteOptions(0.1)
	opt.FmaxIterations = 3
	opt.ResumeFromPlace = t.TempDir()
	var err error
	if opt.FlowWorkers, err = envFlowWorkers(); err != nil {
		t.Fatal(err)
	}
	s, err := RunSuite(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	t8, err := s.TableVIII()
	if err != nil {
		t.Fatal(err)
	}
	renders := map[string]string{
		"table_i.txt":    s.TableI().String(),
		"table_vi.txt":   s.TableVI().String(),
		"table_vii.txt":  s.TableVII().String(),
		"table_viii.txt": t8.String(),
	}
	for name, got := range renders {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatalf("%s: %v (generate with TestGoldenTables -update)", name, err)
		}
		if !bytes.Equal([]byte(got), want) {
			t.Errorf("%s: resumed flows drifted from the uninterrupted goldens:\n%s",
				name, renderDiff(string(want), got))
		}
	}

	// Every saved database on disk must itself be canonical — the CI
	// verify leg walks these same files.
	matches, err := filepath.Glob(filepath.Join(opt.ResumeFromPlace, "*.db"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no saved databases (%v, %d files)", err, len(matches))
	}
	wantFiles := len(opt.Designs) * len(opt.Configs)
	if len(matches) != wantFiles {
		t.Errorf("%d databases saved, want %d", len(matches), wantFiles)
	}
}

// TestResumeFromPlaceRetries: with ResumeFromPlace set, a retried attempt
// saves its own place-boundary database under its own attempt seed
// before loading it, so a transient fault after placement recovers
// exactly as it does without the save/restore split: the suite succeeds
// with a record equal to the uninterrupted run's.
func TestResumeFromPlaceRetries(t *testing.T) {
	run := func(resumeDir string) *FlowRecord {
		t.Helper()
		plan, err := fault.ParseSpec("aes/Hetero-M3D/timing-repair@1=error:retryable")
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultSuiteOptions(0.02)
		opt.FmaxIterations = 3
		opt.Designs = []designs.Name{designs.AES}
		opt.Configs = []core.ConfigName{core.ConfigHetero}
		opt.Fault = plan
		opt.Retry = flow.RetryPolicy{Attempts: 2}
		opt.ResumeFromPlace = resumeDir
		s, err := RunSuite(context.Background(), opt)
		if err != nil {
			t.Fatalf("resume-from-place %q: a retried transient fault failed the suite: %v", resumeDir, err)
		}
		if n := len(plan.Fired()); n != 1 {
			t.Fatalf("resume-from-place %q: %d injections fired, want 1", resumeDir, n)
		}
		return s.Results[designs.AES][core.ConfigHetero]
	}
	want := run("")
	got := run(t.TempDir())
	if got.Attempts != 2 || want.Attempts != 2 {
		t.Fatalf("attempts = %d resumed, %d uninterrupted; want 2 each", got.Attempts, want.Attempts)
	}
	if !reflect.DeepEqual(got.PPAC, want.PPAC) {
		t.Errorf("resumed PPAC %+v != uninterrupted %+v", got.PPAC, want.PPAC)
	}
	if !reflect.DeepEqual(got.Dive, want.Dive) {
		t.Errorf("resumed deep dive differs from the uninterrupted run's")
	}
	if !reflect.DeepEqual(got.Degraded, want.Degraded) || !reflect.DeepEqual(got.Checks, want.Checks) {
		t.Errorf("resumed degradations/checks %v/%v != uninterrupted %v/%v", got.Degraded, got.Checks, want.Degraded, want.Checks)
	}
}
