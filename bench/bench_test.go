package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the smoke test re-execute the test binary as a
// benchmark child, the same path a run takes.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2, 4}, 50, 2},
		{[]float64{3, 1, 2, 4}, 51, 3},
		{[]float64{3, 1, 2, 4}, 100, 4},
		{hundred, 99, 99},
		{hundred, 1, 1},
		{hundred, 0.1, 1},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which the benchmark's spreads are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 ((8.25 - 2.75) / 5.5)", s)
	}
}

func TestAgreeWithinBound(t *testing.T) {
	base := []float64{10, 10, 10}
	slower := []float64{10.5, 10.4, 10.6} // median 5 % higher
	for _, c := range []struct {
		better string
		bound  float64
		want   bool
	}{
		{"lower", 0.10, true},
		{"lower", 0.03, false},
		{"higher", 0.10, true},
		{"higher", 0.03, false},
	} {
		if got := agree(base, slower, c.better, c.bound); got != c.want {
			t.Errorf("agree(better %s, bound %v) = %v, want %v", c.better, c.bound, got, c.want)
		}
	}
	if d := worseBy(base, slower, "lower"); math.Abs(d-0.05) > 1e-12 {
		t.Errorf("worseBy lower = %v, want 0.05", d)
	}
	if d := worseBy(base, slower, "higher"); math.Abs(d+0.05) > 1e-12 {
		t.Errorf("worseBy higher = %v, want -0.05", d)
	}
}

// TestMetricNames checks every metric name's charset, and that
// cmd/benchdiff, which reads direction from a name's unit suffix, would
// read each one as BENCHMARK.json does: a lower-is-better metric ends in
// _s, _ms or _mb unless its unit marks it informational (a count, a
// count in thousands, or a ratio), and no higher-is-better metric
// carries one of those suffixes.
func TestMetricNames(t *testing.T) {
	charset := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	informational := map[string]bool{"count": true, "k": true, "ratio": true}
	seen := make(map[string]bool)
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !charset.MatchString(def.name) {
			t.Errorf("metric %q: name outside [A-Za-z0-9_.-] or too long", def.name)
		}
		if seen[def.name] {
			t.Errorf("metric %q listed twice", def.name)
		}
		seen[def.name] = true
		suffixed := strings.HasSuffix(def.name, "_s") || strings.HasSuffix(def.name, "_ms") || strings.HasSuffix(def.name, "_mb")
		switch def.better {
		case "lower":
			if !suffixed && !informational[def.unit] {
				t.Errorf("metric %q: lower-is-better without a _s/_ms/_mb suffix or an informational unit", def.name)
			}
		case "higher":
			if suffixed {
				t.Errorf("metric %q: higher-is-better but cmd/benchdiff reads its suffix as lower-is-better", def.name)
			}
		default:
			t.Errorf("metric %q: better = %q", def.name, def.better)
		}
	}
}

// benchSpec is the part of BENCHMARK.json the tests read back.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the
// program's tables in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	var spec benchSpec
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &spec)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestBoundRule(t *testing.T) {
	for _, c := range []struct{ noise, want float64 }{
		{0, 0.03},
		{0.001, 0.03},
		{0.01, 0.03},
		{0.0101, 0.04},
		{0.047, 0.15},
		{0.2, 0.25},
	} {
		if got := boundFor(c.noise); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("boundFor(%v) = %v, want %v", c.noise, got, c.want)
		}
	}
}

// TestBoundsFollowCalibration checks that BENCHMARK.json's bounds are the
// committed calibration's, and that those follow the rule from the
// calibration's own spreads.
func TestBoundsFollowCalibration(t *testing.T) {
	var spec benchSpec
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &spec)
	var c calibration
	readJSON(t, "calibration.json", &c)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("calibration covers %d workloads, want %d", len(c.Workloads), len(workloads))
	}
	noise := make(map[string]float64)
	for w, cells := range c.Workloads {
		for _, def := range endToEnd {
			cell := cells[def.name]
			if cell == nil || len(cell.SetA) != c.Seeds || len(cell.SetB) != c.Seeds {
				t.Fatalf("%s %s: want %d runs in each set", w, def.name, c.Seeds)
			}
			noise[def.name] = math.Max(noise[def.name], math.Max(spread(cell.SetA), spread(cell.SetB)))
		}
	}
	var most float64
	for _, def := range endToEnd {
		most = math.Max(most, boundFor(noise[def.name]))
	}
	for _, m := range spec.EndToEnd {
		want := boundFor(noise[m.Name])
		if m.Name == "setup_s" {
			want = most
		}
		if m.Bound != c.Bounds[m.Name] || math.Abs(m.Bound-want) > 1e-12 {
			t.Errorf("%s: BENCHMARK.json bound %v, calibration.json %v, rule %v", m.Name, m.Bound, c.Bounds[m.Name], want)
		}
	}
}

// TestSmoke runs every workload at scale 0.02 through the child-process
// path, one traced and one timed repetition each, and checks the
// results, that the partitioner runs only in the workloads with a 3-D
// flow, that serve records no place or partition span, and the trace
// export. The isolation shares themselves hold only at full size; a
// --trace 1 run prints them and bench/calibration.json records them.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	spans := make(map[string][]span)
	for _, w := range workloadNames() {
		o, err := runWorkload(w, 1, 0, 1, true, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(o.failures) > 0 {
			t.Errorf("%s: %d failures, first: %s", w, len(o.failures), o.failures[0])
		}
		e2e, layers := o.summary(false), o.summary(true)
		if e2e.Attempted < 1 || len(e2e.Metrics) != len(endToEnd) || len(layers.Metrics) != len(perLayer) {
			t.Fatalf("%s: summary %+v / %d per-layer metrics", w, e2e, len(layers.Metrics))
		}
		for name, v := range e2e.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, v.Value)
			}
		}
		fm := layers.Metrics["partition.fm_ms"].Value
		if (fm > 0) != (w == "flow-netcard-hetero" || w == "suite-tables") {
			t.Errorf("%s: partition.fm_ms = %v", w, fm)
		}
		for _, sp := range o.traced.Spans {
			if w == "serve-cpu-whatif" && (sp.Name == "place" || strings.Contains(sp.Name, "partition")) {
				t.Errorf("serve-cpu-whatif recorded a %s span", sp.Name)
			}
		}
		if len(o.traced.Spans) == 0 {
			t.Errorf("%s: traced repetition recorded no spans", w)
		}
		spans[w] = o.traced.Spans
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if want := len(spans["flow-cpu-2d"]); complete < want || want == 0 {
		t.Errorf("trace holds %d complete events, want at least %d", complete, want)
	}
}
