package flow

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

type recordSink struct {
	events []string
}

func (r *recordSink) StageStart(design, config, stage string) {
	r.events = append(r.events, fmt.Sprintf("start %s/%s/%s", design, config, stage))
}

func (r *recordSink) StageDone(design, config, stage string, m StageMetric, err error) {
	status := "ok"
	if err != nil {
		status = "err"
	}
	r.events = append(r.events, fmt.Sprintf("done %s/%s/%s %s cells=%d", design, config, stage, status, m.Cells))
}

func TestRunOrderAndMetrics(t *testing.T) {
	c := NewContext(context.Background(), "cpu", "2D-12T", 1)
	b := &boundaryLog{}
	sink := &recordSink{}
	c.Sink = sink

	var order []string
	mk := func(name string, n int) Stage {
		return Stage{Name: name, Run: func(fc *Context) error {
			order = append(order, name)
			b.cells = n
			return nil
		}}
	}
	if err := Run(c, b, []Stage{mk("map", 10), mk("place", 12), mk("cts", 15)}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "map" || order[2] != "cts" {
		t.Fatalf("stage order = %v", order)
	}
	ms := c.Metrics()
	if len(ms) != 3 {
		t.Fatalf("got %d metrics", len(ms))
	}
	if ms[1].Name != "place" || ms[1].Cells != 12 {
		t.Errorf("metric[1] = %+v", ms[1])
	}
	if ms[2].Wall < 0 {
		t.Errorf("negative wall time %v", ms[2].Wall)
	}
	if len(sink.events) != 6 {
		t.Fatalf("sink saw %d events: %v", len(sink.events), sink.events)
	}
	if sink.events[0] != "start cpu/2D-12T/map" || sink.events[3] != "done cpu/2D-12T/place ok cells=12" {
		t.Errorf("sink events = %v", sink.events)
	}
}

func TestRunStageError(t *testing.T) {
	c := NewContext(context.Background(), "aes", "Hetero-M3D", 1)
	sink := &recordSink{}
	c.Sink = sink
	boom := errors.New("boom")
	ran := false
	err := Run(c, nil, []Stage{
		{Name: "map", Run: func(*Context) error { return nil }},
		{Name: "partition", Run: func(*Context) error { return boom }},
		{Name: "cts", Run: func(*Context) error { ran = true; return nil }},
	})
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("err %T not a *flow.Error: %v", err, err)
	}
	if fe.Design != "aes" || fe.Config != "Hetero-M3D" || fe.Stage != "partition" {
		t.Errorf("attribution = %+v", fe)
	}
	if !errors.Is(err, boom) {
		t.Error("error does not unwrap to cause")
	}
	if ran {
		t.Error("pipeline continued past a failing stage")
	}
	// The failing stage's metric and done event are still recorded.
	if got := len(c.Metrics()); got != 2 {
		t.Errorf("%d metrics after failure", got)
	}
	if last := sink.events[len(sink.events)-1]; last != "done aes/Hetero-M3D/partition err cells=0" {
		t.Errorf("last sink event = %q", last)
	}
}

func TestRunNestedErrorKeepsAttribution(t *testing.T) {
	inner := &Error{Design: "cpu", Config: "2D-9T", Stage: "sta", Err: errors.New("late")}
	c := NewContext(context.Background(), "cpu", "2D-9T", 1)
	err := Run(c, nil, []Stage{{Name: "fmax", Run: func(*Context) error { return inner }}})
	var fe *Error
	if !errors.As(err, &fe) || fe != inner {
		t.Fatalf("nested error re-wrapped: %v", err)
	}
}

func TestRunCancelledBeforeStage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewContext(ctx, "ldpc", "M3D-9T", 1)
	ran := false
	err := Run(c, nil, []Stage{{Name: "map", Run: func(*Context) error { ran = true; return nil }}})
	if ran {
		t.Error("stage ran despite cancelled context")
	}
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("err %T not a *flow.Error: %v", err, err)
	}
	if fe.Stage != "map" {
		t.Errorf("stage = %q", fe.Stage)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not unwrap to context.Canceled")
	}
}

func TestContextSeededRNG(t *testing.T) {
	a := NewContext(nil, "d", "c", 42).RNG.Int63()
	b := NewContext(nil, "d", "c", 42).RNG.Int63()
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if c := NewContext(nil, "d", "c", 43).RNG.Int63(); c == a {
		t.Error("different seeds coincide")
	}
}

func TestCanceledNilSafe(t *testing.T) {
	var c *Context
	if c.Canceled() != nil {
		t.Error("nil context should report no cancellation")
	}
}

func TestAddStatAggregation(t *testing.T) {
	cases := []struct {
		name string
		run  func(*Context)
		want map[string]int64
	}{
		{
			name: "no stats leaves nil map",
			run:  func(*Context) {},
			want: nil,
		},
		{
			name: "zero values are dropped",
			run:  func(c *Context) { c.AddStat(StatSTAFull, 0) },
			want: nil,
		},
		{
			name: "repeated keys accumulate",
			run: func(c *Context) {
				c.AddStat(StatRCHits, 3)
				c.AddStat(StatRCHits, 4)
				c.AddStat(StatRCMisses, 1)
			},
			want: map[string]int64{StatRCHits: 7, StatRCMisses: 1},
		},
		{
			name: "negative deltas accumulate too",
			run: func(c *Context) {
				c.AddStat(StatSTANodes, 10)
				c.AddStat(StatSTANodes, -4)
			},
			want: map[string]int64{StatSTANodes: 6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewContext(context.Background(), "d", "c", 1)
			err := Run(c, nil, []Stage{{Name: "s", Run: func(fc *Context) error {
				tc.run(fc)
				return nil
			}}})
			if err != nil {
				t.Fatal(err)
			}
			ms := c.Metrics()
			if len(ms) != 1 {
				t.Fatalf("got %d metrics", len(ms))
			}
			got := ms[0].Stats
			if len(got) != len(tc.want) {
				t.Fatalf("stats = %v, want %v", got, tc.want)
			}
			for k, v := range tc.want {
				if got[k] != v {
					t.Errorf("stats[%s] = %d, want %d", k, got[k], v)
				}
			}
		})
	}
}

func TestAddStatDoesNotLeakAcrossStages(t *testing.T) {
	c := NewContext(context.Background(), "d", "c", 1)
	err := Run(c, nil, []Stage{
		{Name: "a", Run: func(fc *Context) error { fc.AddStat(StatSTAFull, 1); return nil }},
		{Name: "b", Run: func(fc *Context) error { fc.AddStat(StatSTAIncr, 2); return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := c.Metrics()
	if ms[0].Stats[StatSTAFull] != 1 || ms[0].Stats[StatSTAIncr] != 0 {
		t.Errorf("stage a stats = %v", ms[0].Stats)
	}
	if ms[1].Stats[StatSTAIncr] != 2 || ms[1].Stats[StatSTAFull] != 0 {
		t.Errorf("stage b stats = %v", ms[1].Stats)
	}
}

func TestAddStatNilContextSafe(t *testing.T) {
	var c *Context
	c.AddStat(StatSTAFull, 1) // must not panic
}
