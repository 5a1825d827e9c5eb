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
	if err := samePins(inst.Master, m); err != nil {
		return fmt.Errorf("netlist: %w", err)
	}
	inst.Master = m
	d.bumpInst(inst)
	return nil
}

// samePins checks that m can stand in for old with every pin binding
// kept by index: the same pin names and directions in the same order.
func samePins(old, m *cell.Master) error {
	if len(m.Pins) != len(old.Pins) {
		return fmt.Errorf("master %s has %d pins, %s has %d",
			m.Name, len(m.Pins), old.Name, len(old.Pins))
	}
	for i := range m.Pins {
		if m.Pins[i].Name != old.Pins[i].Name || m.Pins[i].Dir != old.Pins[i].Dir {
			return fmt.Errorf("pin %d mismatch replacing %s with %s", i, old.Name, m.Name)
		}
	}
	return nil
}

// InsertBuffer splits net n in front of the given sink subset: a new
// buffer instance (of master buf) is driven by n, and the listed sinks are
// moved onto a new net driven by the buffer. The buffer is placed at the
// centroid of the moved sinks. Returns the new instance and net. The
// sink list is checked before anything is added, so an error leaves the
// design untouched.
func (d *Design) InsertBuffer(n *Net, sinks []PinRef, buf *cell.Master, name string) (*Instance, *Net, error) {
	if len(sinks) == 0 {
		return nil, nil, fmt.Errorf("netlist: InsertBuffer with no sinks on %q", n.Name)
	}
	// A sink listed twice is counted once, so found falls short of it too.
	moved := make(map[PinRef]bool, len(sinks))
	for _, s := range sinks {
		moved[s] = true
	}
	found := 0
	for _, s := range n.Sinks {
		if moved[s] {
			found++
		}
	}
	if found != len(sinks) {
		return nil, nil, fmt.Errorf("netlist: %d of %d sinks not distinct sinks of net %q", len(sinks)-found, len(sinks), n.Name)
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
	kept := n.Sinks[:0]
	var cx, cy float64
	for _, s := range n.Sinks {
		if moved[s] {
			s.Inst.nets[s.Pin] = newNet
			newNet.Sinks = append(newNet.Sinks, s)
			cx += s.Loc().X
			cy += s.Loc().Y
		} else {
			kept = append(kept, s)
		}
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

// DisconnectSinks removes the bindings of every sink of n in one pass:
// the bulk form of calling Disconnect on each, with the same journal
// bumps (NetRev(n) and TopoRev each move once per sink). Every sink must
// be bound to n; otherwise nothing changes.
func (d *Design) DisconnectSinks(n *Net) error {
	for i, s := range n.Sinks {
		if !s.Valid() || s.Inst.nets[s.Pin] != n {
			for _, r := range n.Sinks[:i] {
				r.Inst.nets[r.Pin] = n
			}
			return fmt.Errorf("netlist: net %q sink binding mismatch", n.Name)
		}
		s.Inst.nets[s.Pin] = nil
	}
	for range n.Sinks {
		d.bumpNet(n)
		d.bumpTopo()
	}
	n.Sinks = nil
	return nil
}

// Validate checks global structural consistency: every net driven exactly
// once, every pin binding mirrored on the net side, no dangling sinks. It
// returns the first finding of Bindings.
func (d *Design) Validate() error {
	if f := d.Bindings(); len(f) > 0 {
		return f[0]
	}
	return nil
}

// BindKind says which invariant a BindFault breaks.
type BindKind uint8

const (
	// Mirror: a driver or sink binding is not mirrored on the other side,
	// or an output pin is listed as a sink.
	Mirror BindKind = iota
	// NoDriver: the net has sinks or sink ports but no driver.
	NoDriver
	// MultiDriver: the net is driven by both an instance pin and a port.
	MultiDriver
)

// BindFault is one structural finding; Obj names the net or instance at
// fault.
type BindFault struct {
	Kind     BindKind
	Obj, Msg string
}

func (f BindFault) Error() string { return "netlist: " + f.Obj + ": " + f.Msg }

// Bindings walks every net and every instance pin once, in O(pins), and
// returns all structural findings: nets in order (driver, driver count,
// then each sink entry), then instances in order (each bound pin). It
// tolerates master-less instances, invalid references and instance IDs
// that are not positions, the corrupted states the design-integrity
// checker diagnoses. A bound input pin counts as listed when a net of
// d.Nets lists it. A per-pin stamp, not a sink count, records that, so
// a duplicate sink entry cannot hide a missing pin.
func (d *Design) Bindings() []BindFault {
	var out []BindFault
	add := func(k BindKind, obj, format string, args ...any) {
		out = append(out, BindFault{k, obj, fmt.Sprintf(format, args...)})
	}
	// Bit base[i]+p of listed stamps pin p of d.Instances[i]. Instance IDs
	// are positions in every design the journaled APIs build; pos maps the
	// instances of one where they are not.
	base := make([]int32, len(d.Instances)+1)
	for i, inst := range d.Instances {
		base[i+1] = base[i]
		if inst.Master != nil {
			base[i+1] += int32(len(inst.Master.Pins))
		}
	}
	listed := make([]uint64, (base[len(d.Instances)]+63)/64)
	var pos map[*Instance]int
	slot := func(r PinRef) int {
		i := r.Inst.ID
		if i < 0 || i >= len(d.Instances) || d.Instances[i] != r.Inst {
			if pos == nil {
				pos = make(map[*Instance]int, len(d.Instances))
				for j, inst := range d.Instances {
					pos[inst] = j
				}
			}
			var ok bool
			if i, ok = pos[r.Inst]; !ok {
				return -1
			}
		}
		return int(base[i]) + r.Pin
	}

	for _, n := range d.Nets {
		if p := n.Driver; p.Valid() && d.NetAt(p.Inst, p.Pin) != n {
			add(Mirror, n.Name, "driver %s/%s does not point back at the net", p.Inst.Name, p.Spec().Name)
		}
		if !n.HasDriver() && n.Degree() > 0 {
			add(NoDriver, n.Name, "net has %d sink(s) but no driver", len(n.Sinks)+len(n.SinkPorts))
		}
		if p := n.Driver; p.Valid() && n.DriverPort != nil {
			add(MultiDriver, n.Name, "net driven by both pin %s/%s and port %s", p.Inst.Name, p.Spec().Name, n.DriverPort.Name)
		}
		for _, s := range n.Sinks {
			if !s.Valid() {
				add(Mirror, n.Name, "invalid sink reference")
				continue
			}
			isOut := s.Spec().Dir == cell.DirOut
			if isOut {
				add(Mirror, n.Name, "output pin %s/%s listed as sink", s.Inst.Name, s.Spec().Name)
			}
			if d.NetAt(s.Inst, s.Pin) != n {
				add(Mirror, n.Name, "sink %s/%s does not point back at the net", s.Inst.Name, s.Spec().Name)
			} else if b := slot(s); !isOut && b >= 0 {
				listed[b/64] |= 1 << (b % 64)
			}
		}
	}
	for i, inst := range d.Instances {
		if inst.Master == nil {
			continue
		}
		for p, spec := range inst.Master.Pins {
			n, b := d.NetAt(inst, p), int(base[i])+p
			switch {
			case n == nil:
			case spec.Dir == cell.DirOut && n.Driver != PinRef{Inst: inst, Pin: p}:
				add(Mirror, inst.Name, "output pin %s bound to net %s but not its driver", spec.Name, n.Name)
			case spec.Dir != cell.DirOut && listed[b/64]&(1<<(b%64)) == 0:
				add(Mirror, inst.Name, "pin %s bound to net %s but missing from its sinks", spec.Name, n.Name)
			}
		}
	}
	return out
}
