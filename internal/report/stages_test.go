package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
)

// line returns the first line of out whose first field is name.
func line(out, name string) []string {
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 0 && f[0] == name {
			return f
		}
	}
	return nil
}

func TestStageTable(t *testing.T) {
	run := func(place, cts time.Duration, incr int64) []flow.StageMetric {
		return []flow.StageMetric{
			{Name: "place", Wall: place, Cells: 1000, Stats: map[string]int64{"par_tasks": 10}},
			{Name: "cts", Wall: cts, Cells: 1234, Stats: map[string]int64{"sta_incr": incr, "check_rules": 3}},
		}
	}
	a := run(250*time.Millisecond, 80*time.Millisecond, 2)
	b := run(350*time.Millisecond, 120*time.Millisecond, 5)
	out := StageTable("Per-stage wall time", a, b).String()

	// Stat columns follow the timing columns, sorted by key; an
	// aggregate over several runs has no Cells column.
	hdr := line(out, "Stage")
	want := []string{"Stage", "Runs", "Total", "Mean", "Max", "Share", "check_rules", "par_tasks", "sta_incr"}
	if strings.Join(hdr, " ") != strings.Join(want, " ") {
		t.Errorf("header = %v, want %v\n%s", hdr, want, out)
	}
	// Rows keep first-seen order, not time order.
	if strings.Index(out, "\nplace") > strings.Index(out, "\ncts") {
		t.Errorf("rows out of first-seen order:\n%s", out)
	}
	for name, want := range map[string]string{
		"place": "place 2 600.0ms 300.0ms 350.0ms 75.0% - 20 -",
		"cts":   "cts 2 200.0ms 100.0ms 120.0ms 25.0% 6 - 7",
		"total": "total 800.0ms 6 20 7",
	} {
		if got := strings.Join(line(out, name), " "); got != want {
			t.Errorf("%s row = %q, want %q\n%s", name, got, want, out)
		}
	}

	// A single run shows each stage's finishing cell count.
	one := StageTable("one flow", a).String()
	if hdr := line(one, "Stage"); len(hdr) < 7 || hdr[6] != "Cells" {
		t.Errorf("single-run header = %v, want Cells after Share\n%s", hdr, one)
	}
	if got := strings.Join(line(one, "cts"), " "); got != "cts 1 80.0ms 80.0ms 80.0ms 24.2% 1234 3 - 2" {
		t.Errorf("single-run cts row = %q\n%s", got, one)
	}
}

func TestStageTableEmpty(t *testing.T) {
	out := StageTable("empty").String()
	if got := strings.Join(line(out, "total"), " "); got != "total 0.0ms" {
		t.Errorf("empty table should still render a zero total, got %q:\n%s", got, out)
	}
}
