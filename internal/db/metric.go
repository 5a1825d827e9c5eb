package db

import (
	"sort"
	"time"

	"repro/internal/flow"
)

// PutStageMetric writes one flow stage metric. The stats map is emitted
// as sorted (key, value) pairs so encoding stays canonical regardless
// of map iteration order. Wall time is serialized for checkpoint parity
// — a resumed flow reports the saved stages' real durations — which is
// also why tests pinning file digests must hash with Wall zeroed.
func PutStageMetric(w *Writer, m flow.StageMetric) {
	w.PutString(m.Name)
	w.PutI64(int64(m.Wall))
	w.PutI32(int32(m.Cells))
	keys := make([]string, 0, len(m.Stats))
	for k := range m.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.PutU32(uint32(len(keys)))
	for _, k := range keys {
		w.PutString(k)
		w.PutI64(m.Stats[k])
	}
}

// ReadStageMetric reads one flow stage metric. An empty stats map
// decodes to nil, matching what a stage that recorded no stats carries.
func ReadStageMetric(r *Reader) flow.StageMetric {
	m := flow.StageMetric{Name: r.String(), Wall: time.Duration(r.I64()), Cells: int(r.I32())}
	if n := r.Count(12); n > 0 {
		m.Stats = make(map[string]int64, n)
		for i := 0; r.More(i, n); i++ {
			k := r.String()
			m.Stats[k] = r.I64()
		}
	}
	return m
}
