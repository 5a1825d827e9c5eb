package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
)

// TestClampProbe pins the fmax search's probe predictor: the reciprocal
// of the effective delay, clamped to the bracket, with non-positive
// delays (an over-constrained probe whose WNS consumed the whole
// period) jumping to the top of the bracket instead of producing a
// negative or infinite frequency.
func TestClampProbe(t *testing.T) {
	const lo, hi = 0.2, 6.0
	cases := []struct {
		name string
		effD float64
		want float64
	}{
		{"interior", 0.5, 2.0},
		{"clamp-low", 10.0, lo},
		{"clamp-high", 0.01, hi},
		{"zero-delay", 0, hi},
		{"negative-delay", -0.3, hi},
		{"tiny-negative", -1e-18, hi},
	}
	for _, c := range cases {
		got := clampProbe(c.effD, lo, hi)
		if got != c.want {
			t.Errorf("%s: clampProbe(%v) = %v, want %v", c.name, c.effD, got, c.want)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) || got <= 0 {
			t.Errorf("%s: clampProbe(%v) = %v is not a usable frequency", c.name, c.effD, got)
		}
	}
}

// scriptedProbe is a synthetic f_max probe that runs no flow: its
// effective delay at f is effD(f), and its value is the index of the
// call, so a test can tell which probe the search returned. It logs
// every probed frequency.
type scriptedProbe struct {
	effD func(f float64) float64
	fail func(ctx context.Context, f float64) error
	log  []float64
}

func (s *scriptedProbe) probe(ctx context.Context, f float64) (int, *PPAC, error) {
	if s.fail != nil {
		if err := s.fail(ctx, f); err != nil {
			return 0, nil, err
		}
	}
	s.log = append(s.log, f)
	d := s.effD(f)
	return len(s.log) - 1, &PPAC{FreqGHz: f, WNS: 1/f - d, EffDelayNS: d}, nil
}

// TestFindFmaxReturnsAProbe: a probe shaped like LDPC at paper scale,
// whose effective delay rises as the target relaxes (a relaxed target
// gets a smaller netlist), never meets on the way down. The search must
// still return a frequency it probed, together with that probe's value:
// it probes the bracket floor once and returns it.
func TestFindFmaxReturnsAProbe(t *testing.T) {
	opt := DefaultFmaxOptions()
	s := &scriptedProbe{effD: func(f float64) float64 { return (1+opt.SlackFrac)/f + 0.5 }}
	f, v, err := FindFmax(context.Background(), opt, s.probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.log) != opt.Iterations+1 {
		t.Errorf("%d probes %v, want the %d iterations plus the floor", len(s.log), s.log, opt.Iterations)
	}
	if slices.Contains(s.log[:len(s.log)-1], opt.LoGHz) {
		t.Fatalf("the walk %v reached the floor; the test needs one that does not", s.log)
	}
	if f != opt.LoGHz || s.log[v] != f {
		t.Errorf("returned %v GHz with probe %d of %v; want the floor %v and its probe", f, v, s.log, opt.LoGHz)
	}
}

// TestFindFmaxFloorProbedOnce: when the search itself probed the floor
// and nothing met, the fallback returns that probe without running
// another.
func TestFindFmaxFloorProbedOnce(t *testing.T) {
	opt := DefaultFmaxOptions()
	opt.Iterations = 2
	s := &scriptedProbe{effD: func(f float64) float64 { return 10 + 1/f }}
	f, v, err := FindFmax(context.Background(), opt, s.probe)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{(opt.LoGHz + opt.HiGHz) / 4, opt.LoGHz}; !slices.Equal(s.log, want) {
		t.Errorf("probes %v, want %v", s.log, want)
	}
	if f != opt.LoGHz || v != 1 {
		t.Errorf("returned %v GHz with probe %d, want the floor %v with probe 1", f, v, opt.LoGHz)
	}
}

// TestFindFmaxKeepsBestMetProbe: a met probe followed by failing ones
// until the iterations run out returns the met probe and its value; a
// probe that meets at its own prediction returns at once.
func TestFindFmaxKeepsBestMetProbe(t *testing.T) {
	opt := DefaultFmaxOptions()
	opt.Iterations = 3
	f0 := (opt.LoGHz + opt.HiGHz) / 4 // 1.55 GHz
	// f0 meets and predicts 2 GHz; 2 GHz fails and predicts 1.2 GHz,
	// which fails too and predicts 1 GHz, past the last iteration.
	s := &scriptedProbe{effD: func(f float64) float64 {
		switch {
		case f > 1.9:
			return 1 / 1.2
		case f > 1.5:
			return 0.5
		default:
			return 1.0
		}
	}}
	f, v, err := FindFmax(context.Background(), opt, s.probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.log) != 3 {
		t.Errorf("probes %v, want 3", s.log)
	}
	if f != f0 || v != 0 {
		t.Errorf("returned %v GHz with probe %d of %v, want the met first probe at %v", f, v, s.log, f0)
	}

	// f0 fails (0.8 ns > 1.05/1.55 ns) and predicts 1.25 GHz, which
	// meets and is its own prediction.
	s = &scriptedProbe{effD: func(float64) float64 { return 0.8 }}
	f, v, err = FindFmax(context.Background(), opt, s.probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.log) != 2 || f != s.log[1] || v != 1 || math.Abs(f-1.25) > 1e-12 {
		t.Errorf("returned %v GHz with probe %d of %v, want 1.25 with probe 1", f, v, s.log)
	}
}

// TestFindFmaxProbeError: a probe error ends the search with that error,
// whether it comes from a search probe, the floor fallback, or a
// cancelled context; a bad bracket fails before any probe runs.
func TestFindFmaxProbeError(t *testing.T) {
	opt := DefaultFmaxOptions()
	boom := errors.New("boom")
	never := func(f float64) float64 { return (1+opt.SlackFrac)/f + 0.5 }
	for _, tc := range []struct {
		name string
		ctx  func() context.Context
		fail func(ctx context.Context, f float64) error
		want error
	}{
		{"second probe", context.Background, func(_ context.Context, f float64) error {
			if f < 1.5 {
				return boom
			}
			return nil
		}, boom},
		{"floor fallback", context.Background, func(_ context.Context, f float64) error {
			if f == opt.LoGHz {
				return boom
			}
			return nil
		}, boom},
		{"cancelled", func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx
		}, func(ctx context.Context, _ float64) error { return ctx.Err() }, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scriptedProbe{effD: never, fail: tc.fail}
			f, v, err := FindFmax(tc.ctx(), opt, s.probe)
			if !errors.Is(err, tc.want) || f != 0 || v != 0 {
				t.Errorf("FindFmax = (%v, %v, %v), want (0, 0, %v)", f, v, err, tc.want)
			}
		})
	}
	s := &scriptedProbe{effD: never}
	if _, _, err := FindFmax(context.Background(), FmaxOptions{LoGHz: 5, HiGHz: 1}, s.probe); err == nil || len(s.log) > 0 {
		t.Errorf("bad bracket: err %v after %d probes, want an error and none", err, len(s.log))
	}
}
