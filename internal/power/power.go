// Package power analyzes design power the way the paper's methodology
// describes ("fixed input activity factors, and statistical switching
// propagation"): primary-input toggle rates propagate through the logic
// by transition-density rules, and per-instance switching, internal, and
// leakage components accumulate from the library data and the extracted
// wire loads. Heterogeneous boundary cells get the leakage/power derates
// of Tables II/III.
package power

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Config parameterizes one power analysis.
type Config struct {
	// FreqGHz is the operating clock frequency.
	FreqGHz float64
	// InputActivity is the toggle rate (transitions per cycle) assumed at
	// primary inputs.
	InputActivity float64
	// Router supplies wire-cap extraction; nil uses route.New(). The
	// route.Cache a Timer reads (sta.Timer.Extraction) serves power from
	// the slots timing already filled; clock nets, which timing does not
	// extract, fill on first use.
	Router route.Extractor
	// Hetero enables boundary-cell power derates.
	Hetero bool
	// Derates is the boundary model (DefaultDerates when zero and Hetero
	// is set).
	Derates tech.DerateModel
	// FastTrack identifies the higher-VDD library.
	FastTrack tech.Track
}

// DefaultConfig returns the evaluation defaults (15 % input activity).
func DefaultConfig(freqGHz float64) Config {
	return Config{
		FreqGHz:       freqGHz,
		InputActivity: 0.15,
		FastTrack:     tech.Track12,
	}
}

// Breakdown is the analysis result, in µW.
type Breakdown struct {
	Switching float64 // wire + pin cap charging
	Internal  float64 // cell-internal energy
	Leakage   float64
	Clock     float64 // portion of Total on the clock network
	Total     float64
	// ByTier splits Total across the two dies.
	ByTier [2]float64
	// NetSwitching maps net ID → switching power on that net (µW), kept
	// for the memory-interconnect analysis (Table VIII).
	NetSwitching []float64
	// PerInstance maps instance ID → that cell's total power (µW); the
	// PDN solver distributes these as current sinks.
	PerInstance []float64
}

// clockActivity is the toggle rate of clock nets: two transitions per
// cycle.
const clockActivity = 2.0

// Analyze runs activity propagation and power accumulation.
func Analyze(d *netlist.Design, cfg Config) (*Breakdown, error) {
	if cfg.FreqGHz <= 0 {
		return nil, fmt.Errorf("power: frequency %v must be positive", cfg.FreqGHz)
	}
	if cfg.InputActivity <= 0 {
		cfg.InputActivity = 0.15
	}
	if cfg.Router == nil {
		cfg.Router = route.New()
	}
	if cfg.Hetero && cfg.Derates == (tech.DerateModel{}) {
		cfg.Derates = tech.DefaultDerates()
	}
	if cfg.FastTrack == 0 {
		cfg.FastTrack = tech.Track12
	}
	order, err := sta.TopoOrder(d)
	if err != nil {
		return nil, err
	}

	// ---------- Activity propagation ----------
	// act[netID] is the toggle rate of each net; prob[netID] the static
	// one-probability.
	act := make([]float64, len(d.Nets))
	prob := make([]float64, len(d.Nets))
	for i := range prob {
		prob[i] = 0.5
	}
	for _, n := range d.Nets {
		if n.IsClock {
			act[n.ID] = clockActivity
			continue
		}
		if n.DriverPort != nil {
			act[n.ID] = cfg.InputActivity
		}
	}
	for _, inst := range order {
		out := d.OutputNet(inst)
		if out == nil || out.IsClock {
			continue
		}
		a, p := propagate(d, inst, act, prob)
		act[out.ID] = a
		prob[out.ID] = p
	}

	// ---------- Power accumulation ----------
	b := &Breakdown{
		NetSwitching: make([]float64, len(d.Nets)),
		PerInstance:  make([]float64, len(d.Instances)),
	}
	for _, inst := range order {
		der := derateFor(d, inst, cfg)
		leak := inst.Master.Leakage * der.Leakage
		var sw, internal float64
		if out := d.OutputNet(inst); out != nil {
			a := act[out.ID]
			rc := cfg.Router.Extract(out)
			ctot := rc.WireCap + out.TotalPinCap()
			v := inst.Master.VDD
			if v == 0 {
				v = 0.9
			}
			// fF × V² × toggles/cycle × GHz / 2 → µW.
			sw = 0.5 * ctot * v * v * a * cfg.FreqGHz * der.Power
			internal = inst.Master.InternalEnergy * a * cfg.FreqGHz * der.Power
			b.NetSwitching[out.ID] = sw
		}
		total := sw + internal + leak
		b.PerInstance[inst.ID] = total
		b.Switching += sw
		b.Internal += internal
		b.Leakage += leak
		b.Total += total
		b.ByTier[inst.Tier] += total
		if inst.Master.Function.IsClockCell() {
			b.Clock += total
		}
	}
	return b, nil
}

// propagate applies per-function transition-density rules.
func propagate(d *netlist.Design, inst *netlist.Instance, act, prob []float64) (a, p float64) {
	var ia []float64
	var ip []float64
	for i, pin := range inst.Master.Pins {
		if pin.Dir != cell.DirIn {
			continue
		}
		n := d.NetAt(inst, i)
		if n == nil {
			ia = append(ia, 0)
			ip = append(ip, 0.5)
			continue
		}
		ia = append(ia, act[n.ID])
		ip = append(ip, prob[n.ID])
	}
	get := func(k int) (float64, float64) {
		if k < len(ia) {
			return ia[k], ip[k]
		}
		return 0, 0.5
	}
	a0, p0 := get(0)
	a1, p1 := get(1)
	a2, _ := get(2)

	switch inst.Master.Function {
	case cell.FuncInv:
		return clampAct(a0), 1 - p0
	case cell.FuncBuf, cell.FuncClkBuf, cell.FuncClkInv, cell.FuncLevelSh:
		return clampAct(a0), p0
	case cell.FuncNand2:
		return clampAct(a0*p1 + a1*p0), 1 - p0*p1
	case cell.FuncAnd2:
		return clampAct(a0*p1 + a1*p0), p0 * p1
	case cell.FuncNor2:
		return clampAct(a0*(1-p1) + a1*(1-p0)), (1 - p0) * (1 - p1)
	case cell.FuncOr2:
		return clampAct(a0*(1-p1) + a1*(1-p0)), 1 - (1-p0)*(1-p1)
	case cell.FuncXor2:
		return clampAct(a0 + a1), p0*(1-p1) + p1*(1-p0)
	case cell.FuncXnor2:
		return clampAct(a0 + a1), 1 - (p0*(1-p1) + p1*(1-p0))
	case cell.FuncAoi21, cell.FuncOai21:
		return clampAct(0.6*a0*p1 + 0.6*a1*p0 + 0.4*a2), 0.5
	case cell.FuncMux2:
		// Data activities mix; select toggling adds when inputs differ.
		diff := p0*(1-p1) + p1*(1-p0)
		return clampAct(0.5*(a0+a1) + a2*diff), 0.5*p0 + 0.5*p1
	case cell.FuncDFF:
		// Registered: Q toggles at most once per cycle.
		if a0 > 1 {
			a0 = 1
		}
		return a0, p0
	case cell.FuncMacroRAM:
		return 0.2, 0.5
	default:
		return clampAct(a0), 0.5
	}
}

func clampAct(a float64) float64 {
	if a < 0 {
		return 0
	}
	if a > 2 {
		return 2
	}
	return a
}

// derateFor composes the boundary power derates for an instance.
func derateFor(d *netlist.Design, inst *netlist.Instance, cfg Config) tech.Derate {
	der := tech.Unity()
	if !cfg.Hetero {
		return der
	}
	fast := inst.Master.Track == cfg.FastTrack
	if out := d.OutputNet(inst); out != nil && out.CrossesTiers() {
		der = der.Compose(cfg.Derates.ForOutputBoundary(fast))
	}
	for _, in := range d.InputNets(inst) {
		if in.IsClock {
			continue
		}
		if in.Driver.Valid() && in.Driver.Inst.Tier != inst.Tier {
			der = der.Compose(cfg.Derates.ForInputBoundary(fast))
			break
		}
	}
	return der
}

// NetSwitchingPower returns the switching power of a single net from a
// prior analysis, in µW.
func (b *Breakdown) NetSwitchingPower(n *netlist.Net) float64 {
	if n.ID < len(b.NetSwitching) {
		return b.NetSwitching[n.ID]
	}
	return 0
}
