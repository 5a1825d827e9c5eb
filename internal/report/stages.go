package report

import (
	"fmt"
	"time"

	"repro/internal/flow"
)

// StageTable renders the -stage-report table over one or more flow
// runs' stage metrics: one row per stage in first-seen order with its
// run count, total/mean/max wall time and share of the total, then one
// column per engine-counter key any metric reported, sorted by key. A
// single run also shows each stage's finishing cell count. A totals row
// closes the table.
func StageTable(title string, runs ...[]flow.StageMetric) *Table {
	type row struct {
		runs       int
		total, max time.Duration
		cells      int
		stats      map[string]int64
	}
	var order []string
	rows := make(map[string]*row)
	var total time.Duration
	for _, ms := range runs {
		for _, m := range ms {
			r, ok := rows[m.Name]
			if !ok {
				r = &row{stats: make(map[string]int64)}
				rows[m.Name] = r
				order = append(order, m.Name)
			}
			r.runs++
			r.total += m.Wall
			r.max = max(r.max, m.Wall)
			r.cells = m.Cells
			for k, v := range m.Stats {
				r.stats[k] += v
			}
			total += m.Wall
		}
	}
	totals := flow.Totals(runs...)
	keys := flow.SortedKeys(totals)

	single := len(runs) == 1
	headers := []string{"Stage", "Runs", "Total", "Mean", "Max", "Share"}
	if single {
		headers = append(headers, "Cells")
	}
	t := NewTable(title, append(headers, keys...)...)
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
	count := func(v int64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprint(v)
	}
	for _, name := range order {
		r := rows[name]
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(r.total)/float64(total))
		}
		cells := []string{name, fmt.Sprint(r.runs), ms(r.total), ms(r.total / time.Duration(r.runs)), ms(r.max), share}
		if single {
			cells = append(cells, count(int64(r.cells)))
		}
		for _, k := range keys {
			cells = append(cells, count(r.stats[k]))
		}
		t.AddRowf(cells...)
	}
	cells := []string{"total", "", ms(total), "", "", ""}
	if single {
		cells = append(cells, "")
	}
	for _, k := range keys {
		cells = append(cells, count(totals[k]))
	}
	t.AddRowf(cells...)
	return t
}
