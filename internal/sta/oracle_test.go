package sta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// oracle recomputes a design's timing from the defining equations by
// memoized recursion, in no particular order: a cell's arrival, min
// arrival and slew pull from its drivers' values through its fanin arcs,
// and its required time pulls from its sinks' through its fanout arcs.
// Max and min are exact in floating point and every arc term is the same
// expression the engine evaluates, so any correct sweep order must agree
// with it bit for bit.
type oracle struct {
	d   *netlist.Design
	cfg Config
	rc  []*route.NetRC

	arrIn, arr, arrMin, slew, delay, req []float64
	fwd, bwd                             []int8 // 0 unvisited, 1 on the stack, 2 done
	t                                    *testing.T
}

func newOracle(t *testing.T, d *netlist.Design, cfg Config) *oracle {
	n := len(d.Instances)
	o := &oracle{
		d: d, cfg: cfg, rc: make([]*route.NetRC, len(d.Nets)),
		arrIn: make([]float64, n), arr: make([]float64, n), arrMin: make([]float64, n), slew: make([]float64, n),
		delay: make([]float64, n), req: make([]float64, n),
		fwd: make([]int8, n), bwd: make([]int8, n), t: t,
	}
	r := route.New()
	for _, nn := range d.Nets {
		if !nn.IsClock {
			o.rc[nn.ID] = r.Extract(nn)
		}
	}
	return o
}

// wire returns the Elmore delay of the arc from net nn to its si-th sink.
func (o *oracle) wire(nn *netlist.Net, si int) float64 {
	rc := o.rc[nn.ID]
	return tech.RCps(rc.SinkR[si], rc.SinkCapShare[si]+nn.Sinks[si].Spec().Cap)
}

func (o *oracle) forward(inst *netlist.Instance) {
	id := inst.ID
	switch o.fwd[id] {
	case 2:
		return
	case 1:
		o.t.Fatalf("oracle: combinational cycle through %s", inst.Name)
	}
	o.fwd[id] = 1
	out := o.d.OutputNet(inst)
	load := 0.0
	if out != nil {
		load = out.TotalPinCap()
		if rc := o.rc[out.ID]; rc != nil {
			load += rc.WireCap
		}
	}
	f := inst.Master.Function
	if f.IsSequential() || f.IsMacro() {
		d0 := inst.Master.Delay.Lookup(o.cfg.InputSlew, load)
		s0 := inst.Master.OutSlew.Lookup(o.cfg.InputSlew, load)
		o.delay[id], o.arr[id], o.arrMin[id], o.slew[id] = d0, d0, d0, s0
		o.fwd[id] = 2
		return
	}
	ai, ami, si := 0.0, math.Inf(1), o.cfg.InputSlew
	for pi, p := range inst.Master.Pins {
		if p.Dir != cell.DirIn {
			continue
		}
		nn := o.d.NetAt(inst, pi)
		if nn == nil || nn.DriverPort != nil {
			ami = 0 // a port or a floating pin can switch at t=0
			continue
		}
		if nn.IsClock || !nn.Driver.Valid() {
			continue
		}
		drv := nn.Driver.Inst
		o.forward(drv)
		for k, s := range nn.Sinks {
			if s.Inst != inst || s.Pin != pi {
				continue
			}
			wd := o.wire(nn, k)
			ai = math.Max(ai, o.arr[drv.ID]+wd)
			ami = math.Min(ami, o.arrMin[drv.ID]+wd)
			si = math.Max(si, o.slew[drv.ID]+wd)
		}
	}
	if math.IsInf(ami, 1) {
		ami = 0
	}
	d0 := inst.Master.Delay.Lookup(si, load)
	s0 := inst.Master.OutSlew.Lookup(si, load)
	o.arrIn[id] = ai
	o.delay[id], o.arr[id], o.arrMin[id], o.slew[id] = d0, ai+d0, ami+d0, s0
	o.fwd[id] = 2
}

// required returns the required time at inst's output: the tightest of
// its register and port captures and of its combinational sinks'
// required times less their stage delays.
func (o *oracle) required(inst *netlist.Instance) float64 {
	id := inst.ID
	switch o.bwd[id] {
	case 2:
		return o.req[id]
	case 1:
		o.t.Fatalf("oracle: combinational cycle through %s", inst.Name)
	}
	o.bwd[id] = 1
	req := math.Inf(1)
	if out := o.d.OutputNet(inst); out != nil && o.rc[out.ID] != nil {
		for k, s := range out.Sinks {
			if s.Spec().Dir == cell.DirClk {
				continue
			}
			wd := o.wire(out, k)
			if f := s.Inst.Master.Function; f.IsSequential() || f.IsMacro() {
				req = math.Min(req, o.cfg.Period-s.Inst.Master.Setup-wd)
			} else {
				o.forward(s.Inst)
				req = math.Min(req, o.required(s.Inst)-o.delay[s.Inst.ID]-wd)
			}
		}
		for pi, p := range out.SinkPorts {
			rc := o.rc[out.ID]
			ri := len(out.Sinks) + pi
			req = math.Min(req, o.cfg.Period-tech.RCps(rc.SinkR[ri], rc.SinkCapShare[ri]+p.Cap))
		}
	}
	o.req[id] = req
	o.bwd[id] = 2
	return req
}

// worst returns the worst setup slack over every capture — register D
// pins and output ports — and the worst hold slack over the registers.
func (o *oracle) worst() (setup, hold float64) {
	setup, hold = math.Inf(1), math.Inf(1)
	for _, inst := range o.d.Instances {
		out := o.d.OutputNet(inst)
		if out == nil || o.rc[out.ID] == nil {
			continue
		}
		o.forward(inst)
		for k, s := range out.Sinks {
			f := s.Inst.Master.Function
			if s.Spec().Dir == cell.DirClk || !(f.IsSequential() || f.IsMacro()) {
				continue
			}
			wd := o.wire(out, k)
			setup = math.Min(setup, o.cfg.Period-s.Inst.Master.Setup-(o.arr[inst.ID]+wd))
			hold = math.Min(hold, o.arrMin[inst.ID]+wd-s.Inst.Master.Hold)
		}
		for pi, p := range out.SinkPorts {
			rc := o.rc[out.ID]
			ri := len(out.Sinks) + pi
			setup = math.Min(setup, o.cfg.Period-(o.arr[inst.ID]+tech.RCps(rc.SinkR[ri], rc.SinkCapShare[ri]+p.Cap)))
		}
	}
	return setup, hold
}

// TestAnalyzeMatchesOracle checks the levelized engine against the
// order-free oracle on random register-bounded DAGs whose cells mix
// register and combinational fanin and span both tiers. Beyond the
// per-cell values it checks that the reported predecessor is a
// worst-arrival driver and that WNS is the worst capture slack. Each
// design is checked after the full pass and again after a few unread
// incremental updates, whose required times the check reads through the
// settle SlackMap runs.
func TestAnalyzeMatchesOracle(t *testing.T) {
	var settles int64
	for seed := int64(0); seed < 30; seed++ {
		d := randomDAG(t, seed)
		for i, inst := range d.Instances {
			if i%3 == 0 {
				inst.Tier = tech.TierTop
			}
		}
		cfg := DefaultConfig(0.7)
		tm, err := NewTimer(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 4; step++ {
			if step > 0 {
				inst := d.Instances[rng.Intn(len(d.Instances))]
				inst.SetLoc(geom.Pt(rng.Float64()*60, rng.Float64()*40))
			}
			got, err := tm.Update()
			if err != nil {
				t.Fatal(err)
			}
			got.SlackMap()
			checkOracle(t, seed, d, cfg, tm, got)
		}
		settles += tm.Stats().RequiredSweeps
	}
	if settles == 0 {
		t.Fatal("no check read required times through a settle")
	}
}

// checkOracle compares one settled result against the oracle.
func checkOracle(t *testing.T, seed int64, d *netlist.Design, cfg Config, tm *Timer, got *Result) {
	t.Helper()
	o := newOracle(t, d, cfg)
	for _, inst := range d.Instances {
		id := inst.ID
		o.forward(inst)
		req := o.required(inst)
		if got.arrOut[id] != o.arr[id] || tm.arrMinOut[id] != o.arrMin[id] ||
			got.slewOut[id] != o.slew[id] || got.delay[id] != o.delay[id] || got.reqOut[id] != req {
			t.Fatalf("seed %d: %s arr/min/slew/delay/req = %v/%v/%v/%v/%v, oracle %v/%v/%v/%v/%v",
				seed, inst.Name, got.arrOut[id], tm.arrMinOut[id], got.slewOut[id], got.delay[id], got.reqOut[id],
				o.arr[id], o.arrMin[id], o.slew[id], o.delay[id], req)
		}
		if f := inst.Master.Function; f.IsSequential() || f.IsMacro() {
			continue
		}
		if p := got.pred[id]; p >= 0 && got.arrOut[p]+got.inWire[id] != o.arrIn[id] {
			t.Fatalf("seed %d: %s pred %d arrives at %v, worst input at %v",
				seed, inst.Name, p, got.arrOut[p]+got.inWire[id], o.arrIn[id])
		}
	}
	if wns, hold := o.worst(); got.WNS != wns || got.HoldWNS != hold {
		t.Fatalf("seed %d: WNS/hold WNS %v/%v, oracle %v/%v", seed, got.WNS, got.HoldWNS, wns, hold)
	}
}
