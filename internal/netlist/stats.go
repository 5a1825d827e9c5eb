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

// Clone returns an exact structural copy of the design: the same name,
// dense IDs, instance/net/port names, pin bindings, sink and sink-port
// orders, physical state and change-journal revisions (topology, per
// instance, per net), so every revision-keyed view built over d — an RC
// store's slots, a Timer's baselines — is valid over the copy as is.
// The copy shares only the immutable cell masters; its instances journal
// into the copy, so mutating it moves no revision of d. Objects are
// allocated in slabs and the name maps pre-sized: this is the fork a
// what-if session pays instead of decoding a design database. d must be
// quiescent and structurally consistent (every pin reference and port
// net belongs to d).
func (d *Design) Clone() *Design { return d.clone(nil) }

// CloneMapped is Clone with each instance's master replaced by
// pick(master), called once per distinct master: how the map stage
// re-implements a netlist in another library. Bindings are copied by pin
// index, so a substitute must pass ReplaceMaster's pin-layout check; the
// first instance whose master fails pick or the check is named in the
// error, and no copy is built. The substitution journals nothing (no
// consumer has read the copy), so the copy keeps d's revisions, which for
// a d built only through Add*/Connect equal a rebuild by name's.
func (d *Design) CloneMapped(pick func(*cell.Master) (*cell.Master, error)) (*Design, error) {
	onto := make(map[*cell.Master]*cell.Master)
	for _, inst := range d.Instances {
		if _, done := onto[inst.Master]; done {
			continue
		}
		m, err := pick(inst.Master)
		if err == nil {
			err = samePins(inst.Master, m)
		}
		if err != nil {
			return nil, fmt.Errorf("netlist: clone %s: %w", inst.Name, err)
		}
		onto[inst.Master] = m
	}
	return d.clone(onto), nil
}

// clone is the one copy loop behind Clone and CloneMapped; onto (nil for
// an exact copy) maps an original master to its substitute.
func (d *Design) clone(onto map[*cell.Master]*cell.Master) *Design {
	nd := &Design{
		Name:       d.Name,
		Instances:  make([]*Instance, len(d.Instances)),
		Nets:       make([]*Net, len(d.Nets)),
		Ports:      make([]*Port, len(d.Ports)),
		instByName: make(map[string]*Instance, len(d.Instances)),
		netByName:  make(map[string]*Net, len(d.Nets)),
		portByName: make(map[string]*Port, len(d.Ports)),
		jn: journal{
			topoRev: d.jn.topoRev,
			maxTopo: d.jn.maxTopo,
			instRev: append([]uint64(nil), d.jn.instRev...),
			netRev:  append([]uint64(nil), d.jn.netRev...),
		},
	}
	insts := make([]Instance, len(d.Instances))
	nets := make([]Net, len(d.Nets))
	ports := make([]Port, len(d.Ports))
	portOf := make(map[*Port]*Port, len(d.Ports))
	for i, p := range d.Ports {
		np := &ports[i]
		*np = *p
		if p.Net != nil {
			np.Net = &nets[p.Net.ID]
		}
		nd.Ports[i] = np
		nd.portByName[np.Name] = np
		portOf[p] = np
	}

	pins, sinks, sinkPorts := 0, 0, 0
	for _, inst := range d.Instances {
		pins += len(inst.nets)
	}
	for _, n := range d.Nets {
		sinks += len(n.Sinks)
		sinkPorts += len(n.SinkPorts)
	}
	pinSlab := make([]*Net, pins)
	sinkSlab := make([]PinRef, sinks)
	portSlab := make([]*Port, sinkPorts)
	for i, inst := range d.Instances {
		ni := &insts[i]
		*ni = *inst
		ni.design = nd
		if m, ok := onto[inst.Master]; ok {
			ni.Master = m
		}
		k := len(inst.nets)
		ni.nets, pinSlab = pinSlab[:k:k], pinSlab[k:]
		for pi, n := range inst.nets {
			if n != nil {
				ni.nets[pi] = &nets[n.ID]
			}
		}
		nd.Instances[i] = ni
		nd.instByName[ni.Name] = ni
	}
	ref := func(p PinRef) PinRef {
		if p.Inst == nil {
			return p
		}
		return PinRef{Inst: &insts[p.Inst.ID], Pin: p.Pin}
	}
	for i, n := range d.Nets {
		nn := &nets[i]
		*nn = *n
		nn.Driver = ref(n.Driver)
		if n.DriverPort != nil {
			nn.DriverPort = portOf[n.DriverPort]
		}
		k := len(n.Sinks)
		nn.Sinks, sinkSlab = sinkSlab[:k:k], sinkSlab[k:]
		for si, s := range n.Sinks {
			nn.Sinks[si] = ref(s)
		}
		k = len(n.SinkPorts)
		nn.SinkPorts, portSlab = portSlab[:k:k], portSlab[k:]
		for si, p := range n.SinkPorts {
			nn.SinkPorts[si] = portOf[p]
		}
		nd.Nets[i] = nn
		nd.netByName[nn.Name] = nn
	}
	return nd
}
