package sta

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/netlist"
	"repro/internal/route"
)

// Config parameterizes one timing analysis.
type Config struct {
	// Period is the clock period in ns.
	Period float64
	// Router supplies the RC extraction; nil uses route.New(). A Timer
	// keeps its extractions in a route.Cache: Router itself when it is
	// one (so power analysis or a later Timer can read the same slots),
	// otherwise a fresh store wrapping it.
	Router route.Extractor
	// InputSlew is the transition time assumed at primary inputs and
	// register clock pins, in ns.
	InputSlew float64
	// Latency returns the clock-tree arrival time at a sequential cell's
	// clock pin; nil means an ideal (zero-latency, zero-skew) clock.
	Latency func(*netlist.Instance) float64
	// ForceFull disables incremental updates on a Timer: every Update
	// recomputes from scratch. One-shot Analyze is always full.
	ForceFull bool
	// Workers bounds the full pass's intra-analysis parallelism: RC
	// extraction fans out per net and the forward/backward sweeps run
	// per topological level. Results are byte-identical at any value
	// (every work item writes only its own index-addressed slots);
	// <= 1 runs serially. Incremental updates are always serial — their
	// frontier is small by construction.
	Workers int
}

// DefaultConfig returns a Config for an ideal clock at the given period.
func DefaultConfig(period float64) Config {
	return Config{
		Period:    period,
		InputSlew: 0.02,
	}
}

// Result carries the outcome of one analysis. Slices are indexed by
// instance ID. A Timer's retained Result may owe required times from
// incremental updates: SlackMap, CellSlack and Snapshot settle them
// before reading (see Timer); every other accessor is exact as is.
type Result struct {
	// WNS is the worst (minimum) endpoint slack in ns — positive when
	// timing is met. TNS sums the negative endpoint slacks (0 when met).
	WNS, TNS float64
	// HoldWNS and HoldTNS are the min-path (hold) counterparts: the
	// earliest D-pin arrival against capture latency plus the library
	// hold requirement.
	HoldWNS, HoldTNS float64
	// Endpoints and FailingEndpoints count setup-check points.
	Endpoints, FailingEndpoints int
	// FailingHoldEndpoints counts hold violations.
	FailingHoldEndpoints int

	cfg     Config
	d       *netlist.Design
	arrOut  []float64 // arrival at each instance's output pin
	reqOut  []float64 // required time at each instance's output pin
	delay   []float64 // cell (stage) delay per instance
	slewOut []float64 // output slew per instance
	inWire  []float64 // wire delay of the worst incoming edge
	pred    []int32   // worst-arrival predecessor instance ID (-1 = source/port)

	// endpoint slacks for path tracing: instance endpoints (DFF D, macro
	// A) and output ports.
	endSlack []endpoint

	// owed is the Timer whose incremental updates left reqOut stale, nil
	// once required times are exact.
	owed atomic.Pointer[Timer]
}

// Settle pays the required times incremental updates still owe, as the
// first SlackMap, CellSlack or Snapshot would; a settled or restored
// Result returns at once. Settle before disturbing what a settle reads —
// the design or the RC store — without a following Update: fault
// injection corrupting a finished stage's state is the one such caller.
func (res *Result) Settle() {
	if t := res.owed.Load(); t != nil {
		t.settle()
	}
}

type endpoint struct {
	inst  *netlist.Instance // nil for output ports
	port  *netlist.Port
	from  int32 // driving instance ID (-1 if port-driven net)
	slack float64
	// hold is the hold-check slack (registered endpoints only); output
	// ports carry +Inf.
	hold float64
}

// Analyze runs full STA on the design: a one-shot Timer session,
// constructed and updated once.
func Analyze(d *netlist.Design, cfg Config) (*Result, error) {
	t, err := NewTimer(d, cfg)
	if err != nil {
		return nil, err
	}
	return t.Update()
}

// CellSlack returns the worst slack among all paths through the instance
// — the cell-based criticality measure the timing-driven partitioner uses
// ("we visit the cells individually and find the worst slack among the
// paths going through the cell", Sec. III-A1).
func (res *Result) CellSlack(inst *netlist.Instance) float64 {
	res.Settle()
	s := res.reqOut[inst.ID] - res.arrOut[inst.ID]
	// Endpoint cells: include their own capture check.
	for _, e := range res.endSlack {
		if e.inst == inst && e.slack < s {
			s = e.slack
		}
	}
	if math.IsInf(s, 1) {
		// No constrained fanout (e.g. dangling output): unconstrained.
		return math.Inf(1)
	}
	return s
}

// SlackMap materializes CellSlack for every instance, resolving endpoint
// checks in one pass (CellSlack's per-endpoint scan is fine for single
// queries; flows use this bulk version).
func (res *Result) SlackMap() []float64 {
	res.Settle()
	out := make([]float64, len(res.d.Instances))
	for i := range out {
		out[i] = res.reqOut[i] - res.arrOut[i]
	}
	for _, e := range res.endSlack {
		if e.inst != nil && e.slack < out[e.inst.ID] {
			out[e.inst.ID] = e.slack
		}
	}
	return out
}

// EffectiveDelay returns clock period − worst slack, the paper's PDP
// denominator metric (negative slack inflates it past the period).
func (res *Result) EffectiveDelay() float64 { return res.cfg.Period - res.WNS }

// ArrivalOut returns the output-pin arrival time of an instance.
func (res *Result) ArrivalOut(inst *netlist.Instance) float64 { return res.arrOut[inst.ID] }

// StageDelay returns the instance's computed cell delay.
func (res *Result) StageDelay(inst *netlist.Instance) float64 { return res.delay[inst.ID] }

// OutputSlew returns the instance's computed output transition time —
// the quantity max-transition DRC fixing acts on.
func (res *Result) OutputSlew(inst *netlist.Instance) float64 { return res.slewOut[inst.ID] }

// WorstEndpoints returns the k endpoints with smallest slack.
func (res *Result) WorstEndpoints(k int) []float64 {
	sl := make([]float64, len(res.endSlack))
	for i, e := range res.endSlack {
		sl[i] = e.slack
	}
	sort.Float64s(sl)
	if k > len(sl) {
		k = len(sl)
	}
	return sl[:k]
}
