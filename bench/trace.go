package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
)

// span is one timed call recorded by the traced pass. Parent is the ID of
// the span that caused it (0 for a root); Track groups spans that run one
// after another, such as one flow's stages or one client connection's
// requests. Start and Dur are in microseconds from the recorder's start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Track  string  `json:"track"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`

	began time.Time
}

// recorder keeps the traced pass's spans in memory. It is safe for
// concurrent use; a nil recorder records nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, track string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Track: track,
		Start: micros(now.Sub(r.t0)), began: now,
	})
	return len(r.spans)
}

// end closes the span with the given ID.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Dur = micros(now.Sub(r.spans[id-1].began))
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timed runs fn inside a span and returns its wall time in milliseconds.
func (r *recorder) timed(name, track string, parent int, fn func() error) (float64, error) {
	id := r.begin(name, track, parent)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	r.end(id)
	return millis(d), err
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// stageSink is the benchmark's flow.Sink (and eval.EventSink): it sums
// every finished stage's wall and engine counters into per-layer
// metrics and, when a recorder is set, records each stage as a span
// under parent on the flow's own track.
type stageSink struct {
	rec    *recorder
	parent int
	t0     time.Time

	mu       sync.Mutex
	open     map[string]int
	stages   []flow.StageMetric
	lastFmax time.Duration
}

func newStageSink(rec *recorder, parent int) *stageSink {
	return &stageSink{rec: rec, parent: parent, t0: time.Now(), open: make(map[string]int)}
}

func (s *stageSink) StageStart(design, config, stage string) {
	id := s.rec.begin(stage, design+"/"+config, s.parent)
	s.mu.Lock()
	s.open[design+"/"+config+"/"+stage] = id
	s.mu.Unlock()
}

func (s *stageSink) StageDone(design, config, stage string, m flow.StageMetric, err error) {
	key := design + "/" + config + "/" + stage
	s.mu.Lock()
	id := s.open[key]
	delete(s.open, key)
	s.stages = append(s.stages, m)
	s.mu.Unlock()
	s.rec.end(id)
}

func (s *stageSink) FmaxDone(design string, cells int, fmaxGHz float64) {
	s.mu.Lock()
	s.lastFmax = time.Since(s.t0)
	s.mu.Unlock()
}

func (s *stageSink) ConfigDone(design string, config core.ConfigName, p *core.PPAC) {}

// traceEvent is one Chrome trace-event record ("X" complete events plus
// "M" name metadata), the format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes each workload's traced-pass spans as one
// process of a Chrome trace-event file, one thread per track.
func writeChromeTrace(path string, byWorkload map[string][]span) error {
	var events []traceEvent
	for pid, w := range workloadNames() {
		spans, ok := byWorkload[w]
		if !ok {
			continue
		}
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": w}})
		tids := make(map[string]int)
		for _, sp := range spans {
			tid, ok := tids[sp.Track]
			if !ok {
				tid = len(tids) + 1
				tids[sp.Track] = tid
				events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: pid + 1, Tid: tid,
					Args: map[string]any{"name": sp.Track}})
			}
			events = append(events, traceEvent{Name: sp.Name, Ph: "X", Ts: sp.Start, Dur: sp.Dur,
				Pid: pid + 1, Tid: tid, Args: map[string]any{"id": sp.ID, "parent": sp.Parent}})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
