package eval

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// -update regenerates the golden renders instead of comparing:
//
//	go test ./internal/eval/ -run TestGoldenTables -update
//
// Review the diff of testdata/golden/ before committing — a changed
// table is a changed paper result.
var update = flag.Bool("update", false, "rewrite the golden table renders under testdata/golden")

// The golden suite pins the full evaluation at scale 0.1 (the CI smoke
// scale): every flow of every design, deterministic at any -workers or
// -flow-workers setting, so the rendered tables are stable bytes.
var (
	goldenOnce sync.Once
	goldenVal  *Suite
	goldenErr  error
)

func goldenSuite(t *testing.T) *Suite {
	t.Helper()
	goldenOnce.Do(func() {
		opt := DefaultSuiteOptions(0.1)
		opt.FmaxIterations = 3
		// The goldens are the same bytes at any intra-flow parallelism;
		// CI proves it by running this test at FLOW_WORKERS=1 and 8.
		if opt.FlowWorkers, goldenErr = envFlowWorkers(); goldenErr != nil {
			return
		}
		goldenVal, goldenErr = RunSuite(context.Background(), opt)
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenVal
}

// envFlowWorkers reads the FLOW_WORKERS intra-flow parallelism the
// determinism tests run at (0, the automatic budget, when unset).
func envFlowWorkers() (int, error) {
	v := os.Getenv("FLOW_WORKERS")
	if v == "" {
		return 0, nil
	}
	fw, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad FLOW_WORKERS %q: %v", v, err)
	}
	return fw, nil
}

// tableRenders renders Tables I–VIII of s under their golden filenames.
func tableRenders(t *testing.T, s *Suite) map[string]string {
	t.Helper()
	t2, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	t5, err := s.TableV()
	if err != nil {
		t.Fatal(err)
	}
	t8, err := s.TableVIII()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"table_i.txt":    s.TableI().String(),
		"table_ii.txt":   t2.String(),
		"table_iii.txt":  t3.String(),
		"table_iv.txt":   TableIV().String(),
		"table_v.txt":    t5.String(),
		"table_vi.txt":   s.TableVI().String(),
		"table_vii.txt":  s.TableVII().String(),
		"table_viii.txt": t8.String(),
	}
}

// TestGoldenTables regression-pins the rendered Tables I–VIII against
// committed golden files, byte for byte. Any change to the flow that
// shifts a paper number — placement, partitioning, timing, power, cost —
// shows up as a readable table diff here rather than as silent drift.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full scale-0.1 evaluation suite")
	}
	renders := tableRenders(t, goldenSuite(t))

	dir := filepath.Join("testdata", "golden")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(renders))
	for name := range renders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := []byte(renders[name])
		path := filepath.Join(dir, name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden (run with -update and review the diff):\n%s",
				name, renderDiff(string(want), string(got)))
		}
	}
}

// renderDiff shows the first few differing lines of two table renders.
func renderDiff(want, got string) string {
	wl := splitLines(want)
	gl := splitLines(got)
	var b bytes.Buffer
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "  line %d:\n  - %s\n  + %s\n", i+1, w, g)
		if shown++; shown >= 5 {
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := bytes.IndexByte([]byte(s), '\n')
		if i < 0 {
			out = append(out, s)
			break
		}
		out = append(out, s[:i])
		s = s[i+1:]
	}
	return out
}
