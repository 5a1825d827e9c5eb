package eval

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
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
