package netlist

import (
	"fmt"

	"repro/internal/cell"
)

// ECO editing primitives. These keep the design structurally consistent
// while synthesis sizes gates, the heterogeneous flow retargets a tier to
// another library, and the repartitioning loop moves cells between tiers.

// ReplaceMaster swaps an instance's master for another with the same pin
// interface (same pin names and directions). Used for gate sizing and for
// the 12-track → 9-track retargeting of the top tier.
//
// The journal records this as a master change on the instance only: the
// swap alters delay tables and pin caps but not wire geometry, so the
// connected nets' extraction revisions stay put and cached RC survives
// the whole sizing loop.
func (d *Design) ReplaceMaster(inst *Instance, m *cell.Master) error {
	if len(m.Pins) != len(inst.Master.Pins) {
		return fmt.Errorf("netlist: master %s has %d pins, %s has %d",
			m.Name, len(m.Pins), inst.Master.Name, len(inst.Master.Pins))
	}
	for i := range m.Pins {
		if m.Pins[i].Name != inst.Master.Pins[i].Name || m.Pins[i].Dir != inst.Master.Pins[i].Dir {
			return fmt.Errorf("netlist: pin %d mismatch replacing %s with %s",
				i, inst.Master.Name, m.Name)
		}
	}
	inst.Master = m
	d.bumpInst(inst)
	return nil
}

// InsertBuffer splits net n in front of the given sink subset: a new
// buffer instance (of master buf) is driven by n, and the listed sinks are
// moved onto a new net driven by the buffer. The buffer is placed at the
// centroid of the moved sinks. Returns the new instance and net.
func (d *Design) InsertBuffer(n *Net, sinks []PinRef, buf *cell.Master, name string) (*Instance, *Net, error) {
	if len(sinks) == 0 {
		return nil, nil, fmt.Errorf("netlist: InsertBuffer with no sinks on %q", n.Name)
	}
	inst, err := d.AddInstance(name, buf)
	if err != nil {
		return nil, nil, err
	}
	newNet, err := d.AddNet(name + "_net")
	if err != nil {
		return nil, nil, err
	}
	newNet.IsClock = n.IsClock

	// Detach the chosen sinks from n.
	moved := make(map[PinRef]bool, len(sinks))
	for _, s := range sinks {
		moved[s] = true
	}
	kept := n.Sinks[:0]
	var cx, cy float64
	found := 0
	for _, s := range n.Sinks {
		if moved[s] {
			s.Inst.nets[s.Pin] = newNet
			newNet.Sinks = append(newNet.Sinks, s)
			cx += s.Loc().X
			cy += s.Loc().Y
			found++
		} else {
			kept = append(kept, s)
		}
	}
	if found != len(sinks) {
		return nil, nil, fmt.Errorf("netlist: %d of %d sinks not on net %q", len(sinks)-found, len(sinks), n.Name)
	}
	n.Sinks = kept
	// The sink moves above bypass Connect, so journal them here: both
	// nets' pin memberships changed.
	d.bumpNet(n)
	d.bumpNet(newNet)
	d.bumpTopo()

	// Wire the buffer: A ← n, Y → newNet.
	if err := d.Connect(inst, "A", n); err != nil {
		return nil, nil, err
	}
	if err := d.Connect(inst, "Y", newNet); err != nil {
		return nil, nil, err
	}
	inst.Loc.X = cx / float64(found)
	inst.Loc.Y = cy / float64(found)
	// The buffer inherits the tier of its sinks' majority side later; by
	// default it lands on the driver's tier.
	if n.Driver.Valid() {
		inst.Tier = n.Driver.Inst.Tier
	}
	return inst, newNet, nil
}

// Disconnect removes the binding between a pin and its net.
func (d *Design) Disconnect(ref PinRef) error {
	if !ref.Valid() {
		return fmt.Errorf("netlist: invalid pin reference")
	}
	n := ref.Inst.nets[ref.Pin]
	if n == nil {
		return fmt.Errorf("netlist: pin %s/%s not connected", ref.Inst.Name, ref.Spec().Name)
	}
	if ref.Spec().Dir == cell.DirOut {
		n.Driver = PinRef{}
	} else {
		for i, s := range n.Sinks {
			if s == ref {
				n.Sinks = append(n.Sinks[:i], n.Sinks[i+1:]...)
				break
			}
		}
	}
	ref.Inst.nets[ref.Pin] = nil
	d.bumpNet(n)
	d.bumpTopo()
	return nil
}

// Validate checks global structural consistency: every net driven exactly
// once, every pin binding mirrored on the net side, no dangling sinks.
func (d *Design) Validate() error {
	for _, n := range d.Nets {
		drivers := 0
		if n.Driver.Valid() {
			drivers++
			if n.Driver.Inst.nets[n.Driver.Pin] != n {
				return fmt.Errorf("netlist: net %q driver binding mismatch", n.Name)
			}
		}
		if n.DriverPort != nil {
			drivers++
		}
		if drivers == 0 && n.Degree() > 0 {
			return fmt.Errorf("netlist: net %q has sinks but no driver", n.Name)
		}
		if drivers > 1 {
			return fmt.Errorf("netlist: net %q has multiple drivers", n.Name)
		}
		for _, s := range n.Sinks {
			if !s.Valid() {
				return fmt.Errorf("netlist: net %q has invalid sink ref", n.Name)
			}
			if s.Inst.nets[s.Pin] != n {
				return fmt.Errorf("netlist: net %q sink %s binding mismatch", n.Name, s.Inst.Name)
			}
			if s.Spec().Dir == cell.DirOut {
				return fmt.Errorf("netlist: net %q lists output pin of %s as sink", n.Name, s.Inst.Name)
			}
		}
	}
	for _, inst := range d.Instances {
		for i, n := range inst.nets {
			if n == nil {
				continue
			}
			spec := inst.Master.Pins[i]
			ref := PinRef{Inst: inst, Pin: i}
			if spec.Dir == cell.DirOut {
				if n.Driver != ref {
					return fmt.Errorf("netlist: instance %s output not the driver of %q", inst.Name, n.Name)
				}
				continue
			}
			found := false
			for _, s := range n.Sinks {
				if s == ref {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("netlist: instance %s pin %s not listed on net %q", inst.Name, spec.Name, n.Name)
			}
		}
	}
	return nil
}
