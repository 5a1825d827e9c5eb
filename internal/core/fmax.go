package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/netlist"
)

// FmaxOptions controls the maximum-frequency search.
type FmaxOptions struct {
	// LoGHz and HiGHz bracket the search.
	LoGHz, HiGHz float64
	// Iterations of the search (each probes a full flow).
	Iterations int
	// SlackFrac is the timing-met criterion: WNS ≥ −SlackFrac × period
	// ("a worst negative slack of ≈5–7 % of the clock period",
	// Sec. IV-A2).
	SlackFrac float64
}

// DefaultFmaxOptions brackets 28 nm digital logic frequencies. Its
// iteration count is the evaluation suite's default too.
func DefaultFmaxOptions() FmaxOptions {
	return FmaxOptions{LoGHz: 0.2, HiGHz: 6.0, Iterations: 5, SlackFrac: 0.05}
}

// Probe runs one flow at fGHz for the f_max search. It returns the value
// the caller keeps of that flow and the flow's PPAC record, whose WNS and
// effective delay steer the search.
type Probe[T any] func(ctx context.Context, fGHz float64) (T, *PPAC, error)

// FlowProbe is the probe that runs src in cfg under opt, with ClockGHz
// set to each probed frequency; its value is the flow's PPAC record.
func FlowProbe(src *netlist.Design, cfg ConfigName, opt Options) Probe[*PPAC] {
	return func(ctx context.Context, fGHz float64) (*PPAC, *PPAC, error) {
		o := opt
		o.ClockGHz = fGHz
		r, err := Run(ctx, src, cfg, o)
		if err != nil {
			return nil, nil, err
		}
		return r.PPAC, r.PPAC, nil
	}
}

// FindFmax searches the maximum frequency at which probe's flow meets
// timing and returns it with the value of the probe run there. The paper
// sweeps the 12-track 2-D implementation this way and uses the result as
// the iso-performance target of every configuration. The search holds at
// most two probe values, the best met one and the current one, and
// returns only probed frequencies: when no probe meets, it returns the
// bracket floor's probe, running it only if the search never did. A
// probe error, cancellation included, ends the search.
func FindFmax[T any](ctx context.Context, opt FmaxOptions, probe Probe[T]) (float64, T, error) {
	var zero T
	if opt.LoGHz <= 0 || opt.HiGHz <= opt.LoGHz {
		return 0, zero, fmt.Errorf("core: bad fmax bracket [%v, %v]", opt.LoGHz, opt.HiGHz)
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 1
	}

	// Adaptive fixed-point search: each probe's effective delay predicts
	// the achievable frequency directly (1/effDelay), so the sweep
	// converges in a handful of flow runs instead of a long bisection.
	// best is the fastest met probe, or the floor's probe while none met.
	var (
		bestF, f = 0.0, (opt.LoGHz + opt.HiGHz) / 4
		bestV    T
		bestMet  bool
	)
	for i := 0; i < opt.Iterations; i++ {
		v, p, err := probe(ctx, f)
		if err != nil {
			return 0, zero, err
		}
		met := p.WNS >= -opt.SlackFrac/f
		switch {
		case met && (!bestMet || f > bestF):
			bestF, bestV, bestMet = f, v, true
		case !bestMet && f == opt.LoGHz:
			bestF, bestV = f, v
		}
		next := clampProbe(p.EffDelayNS, opt.LoGHz, opt.HiGHz)
		// Converged: the prediction matches the probe.
		if math.Abs(next-f)/f < 0.02 {
			if met {
				return f, v, nil
			}
			// Barely-failing fixed point: settle slightly below.
			f = next * 0.97
			continue
		}
		f = next
	}
	if bestF > 0 {
		return bestF, bestV, nil
	}
	v, _, err := probe(ctx, opt.LoGHz)
	if err != nil {
		return 0, zero, err
	}
	return opt.LoGHz, v, nil
}

// clampProbe turns a probe's effective delay into the next frequency to
// try, clamped to the search bracket. A non-positive effective delay
// (WNS at or beyond the full period — an over-constrained probe) has no
// meaningful reciprocal; the search jumps to the top of the bracket,
// which such a result claims is reachable.
func clampProbe(effD, lo, hi float64) float64 {
	if effD <= 0 {
		return hi
	}
	next := 1 / effD
	if next < lo {
		return lo
	}
	if next > hi {
		return hi
	}
	return next
}
