package netlist

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/tech"
)

// Stats summarizes a design's structural content. The flow engine reports
// these per configuration, and the evaluation harness turns them into the
// area/density rows of Tables VI and VII.
type Stats struct {
	Cells       int
	Macros      int
	Sequential  int
	ClockCells  int
	Nets        int
	Pins        int
	Ports       int
	CellArea    float64 // standard-cell area, µm²
	MacroArea   float64 // hard-macro area, µm²
	AreaByTier  [2]float64
	CellsByTier [2]int
	// CrossTierNets counts nets spanning both dies (each needs ≥1 MIV).
	CrossTierNets int
}

// TotalArea returns cell + macro area.
func (s Stats) TotalArea() float64 { return s.CellArea + s.MacroArea }

// ComputeStats walks the design once and returns its summary.
func (d *Design) ComputeStats() Stats {
	var s Stats
	s.Nets = len(d.Nets)
	s.Ports = len(d.Ports)
	for _, inst := range d.Instances {
		area := inst.Master.Area()
		if inst.Master.Function.IsMacro() {
			s.Macros++
			s.MacroArea += area
		} else {
			s.Cells++
			s.CellArea += area
		}
		if inst.Master.Function.IsSequential() {
			s.Sequential++
		}
		if inst.Master.Function.IsClockCell() {
			s.ClockCells++
		}
		s.AreaByTier[inst.Tier] += area
		s.CellsByTier[inst.Tier]++
		s.Pins += len(inst.Master.Pins)
	}
	for _, n := range d.Nets {
		if n.CrossesTiers() {
			s.CrossTierNets++
		}
	}
	return s
}

// InstancesOnTier returns the instances currently assigned to t.
func (d *Design) InstancesOnTier(t tech.Tier) []*Instance {
	var out []*Instance
	for _, inst := range d.Instances {
		if inst.Tier == t {
			out = append(out, inst)
		}
	}
	return out
}

// CloneInto deep-copies the design structure into a fresh Design, mapping
// every instance onto a master from pick (called with the original
// master). This is how a synthesized netlist is re-implemented in a
// different library (9-track vs 12-track synthesis runs), and how flows
// fork a working copy per configuration. Locations, tiers, and flags are
// preserved.
func (d *Design) CloneInto(name string, pick func(*cell.Master) (*cell.Master, error)) (*Design, error) {
	nd := New(name)
	for _, inst := range d.Instances {
		m, err := pick(inst.Master)
		if err != nil {
			return nil, fmt.Errorf("netlist: clone %s: %w", inst.Name, err)
		}
		ni, err := nd.AddInstance(inst.Name, m)
		if err != nil {
			return nil, err
		}
		ni.Tier = inst.Tier
		ni.Loc = inst.Loc
		ni.Fixed = inst.Fixed
	}
	for _, n := range d.Nets {
		nn, err := nd.AddNet(n.Name)
		if err != nil {
			return nil, err
		}
		nn.IsClock = n.IsClock
	}
	for _, p := range d.Ports {
		np, err := nd.AddPort(p.Name, p.Dir, nd.Net(p.Net.Name))
		if err != nil {
			return nil, err
		}
		np.Loc = p.Loc
		np.Cap = p.Cap
	}
	for _, n := range d.Nets {
		nn := nd.Net(n.Name)
		if n.Driver.Valid() {
			ni := nd.Instance(n.Driver.Inst.Name)
			if err := nd.Connect(ni, n.Driver.Spec().Name, nn); err != nil {
				return nil, err
			}
		}
		for _, s := range n.Sinks {
			ni := nd.Instance(s.Inst.Name)
			if err := nd.Connect(ni, s.Spec().Name, nn); err != nil {
				return nil, err
			}
		}
	}
	return nd, nil
}

// Clone returns an identical deep copy of the design.
func (d *Design) Clone(name string) (*Design, error) {
	return d.CloneInto(name, func(m *cell.Master) (*cell.Master, error) { return m, nil })
}
