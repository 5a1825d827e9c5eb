// Package netlist holds the gate-level design representation shared by
// every flow stage: instances bound to cell masters, nets with one driver
// and many sinks, and top-level ports. It also provides the ECO editing
// primitives (resize, retarget, buffer insertion) that synthesis and the
// repartitioning loop rely on.
package netlist

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Instance is one placed cell in the design.
type Instance struct {
	ID     int
	Name   string
	Master *cell.Master
	// Tier is the die the instance sits on; always TierBottom for 2-D.
	// Mutate through SetTier, which journals the change (see journal.go).
	Tier tech.Tier
	// Loc is the cell center in µm. Mutate through SetLoc, which journals
	// the change.
	Loc geom.Point
	// Fixed marks pre-placed objects (macros) the placer must not move.
	Fixed bool
	// nets[i] is the net bound to Master.Pins[i], nil when unconnected.
	nets []*Net
	// outPin is the index of the master's output pin, -1 if it has none.
	// Cached at AddInstance so OutputNet is a slice lookup; ReplaceMaster
	// requires an identical pin interface, so the index never moves.
	outPin int16
	// design points back at the owning Design for the journaled mutators.
	design *Design
}

// SetLoc moves the instance, journaling the change: the instance's
// revision and every connected net's extraction revision are bumped. A
// no-op when the location is bit-identical, so re-legalizing an
// unchanged region leaves caches warm.
func (inst *Instance) SetLoc(p geom.Point) {
	if inst.Loc == p {
		return
	}
	inst.Loc = p
	if d := inst.design; d != nil {
		d.bumpInst(inst)
		d.bumpNetsOf(inst)
	}
}

// SetTier reassigns the instance's die, journaling the change (connected
// nets gain or lose tier crossings, so their extraction revisions bump).
// A no-op when the tier is unchanged.
func (inst *Instance) SetTier(t tech.Tier) {
	if inst.Tier == t {
		return
	}
	inst.Tier = t
	if d := inst.design; d != nil {
		d.bumpInst(inst)
		d.bumpNetsOf(inst)
	}
}

// PinRef identifies one pin of one instance.
type PinRef struct {
	Inst *Instance
	// Pin indexes Inst.Master.Pins.
	Pin int
}

// Spec returns the pin's master-level description.
func (p PinRef) Spec() cell.PinSpec { return p.Inst.Master.Pins[p.Pin] }

// Loc returns the pin location; pins are modeled at the cell center.
func (p PinRef) Loc() geom.Point { return p.Inst.Loc }

// Valid reports whether the reference points at a real pin of a real
// master (a master-less instance has no pins to reference).
func (p PinRef) Valid() bool {
	return p.Inst != nil && p.Inst.Master != nil && p.Pin >= 0 && p.Pin < len(p.Inst.Master.Pins)
}

// Port is a top-level design terminal.
type Port struct {
	Name string
	Dir  cell.Dir
	Net  *Net
	// Loc is the pad location on the die boundary.
	Loc geom.Point
	// Cap is the external load presented by an output port, in fF.
	Cap float64
}

// Net connects one driver to a set of sinks.
type Net struct {
	ID   int
	Name string
	// Driver is the driving instance pin; invalid if the net is driven by
	// an input port instead.
	Driver PinRef
	// DriverPort is the input port driving the net, if any.
	DriverPort *Port
	// Sinks are the instance input pins on the net.
	Sinks []PinRef
	// SinkPorts are output ports fed by the net.
	SinkPorts []*Port
	// IsClock marks the clock distribution net(s).
	IsClock bool
}

// HasDriver reports whether the net has either kind of driver.
func (n *Net) HasDriver() bool { return n.DriverPort != nil || n.Driver.Valid() }

// Degree returns the total pin count on the net (driver + sinks + ports).
func (n *Net) Degree() int {
	d := len(n.Sinks) + len(n.SinkPorts)
	if n.HasDriver() {
		d++
	}
	return d
}

// AppendPinLocs appends every pin location on the net to dst, driver
// first, and returns the extended slice; callers pass a reusable buffer
// (the router's per-net hot paths).
func (n *Net) AppendPinLocs(dst []geom.Point) []geom.Point {
	if n.Driver.Valid() {
		dst = append(dst, n.Driver.Loc())
	} else if n.DriverPort != nil {
		dst = append(dst, n.DriverPort.Loc)
	}
	for _, s := range n.Sinks {
		dst = append(dst, s.Loc())
	}
	for _, p := range n.SinkPorts {
		dst = append(dst, p.Loc)
	}
	return dst
}

// TotalPinCap returns the capacitance of all sink pins plus sink-port
// loads, in fF — the gate-load part of the driver's output load.
func (n *Net) TotalPinCap() float64 {
	c := 0.0
	for _, s := range n.Sinks {
		c += s.Spec().Cap
	}
	for _, p := range n.SinkPorts {
		c += p.Cap
	}
	return c
}

// CrossesTiers reports whether the net spans both dies of a 3-D design and
// therefore needs MIVs.
func (n *Net) CrossesTiers() bool {
	var seen [2]bool
	if n.Driver.Valid() {
		seen[n.Driver.Inst.Tier] = true
	}
	for _, s := range n.Sinks {
		seen[s.Inst.Tier] = true
		if seen[0] && seen[1] {
			return true
		}
	}
	return seen[0] && seen[1]
}

// Design is a complete gate-level netlist.
type Design struct {
	Name      string
	Instances []*Instance
	Nets      []*Net
	Ports     []*Port

	instByName map[string]*Instance
	netByName  map[string]*Net
	portByName map[string]*Port

	// jn holds the change journal's revisions (journal.go).
	jn journal

	// conn caches the topology-keyed connectivity snapshot (conn.go).
	conn atomic.Pointer[Conn]
}

// New creates an empty design.
func New(name string) *Design {
	return &Design{
		Name:       name,
		instByName: make(map[string]*Instance),
		netByName:  make(map[string]*Net),
		portByName: make(map[string]*Port),
	}
}

// AddInstance creates a new instance of master. Names must be unique.
func (d *Design) AddInstance(name string, m *cell.Master) (*Instance, error) {
	if _, dup := d.instByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	inst := &Instance{
		ID:     len(d.Instances),
		Name:   name,
		Master: m,
		nets:   make([]*Net, len(m.Pins)),
		outPin: -1,
		design: d,
	}
	for i, p := range m.Pins {
		if p.Dir == cell.DirOut {
			inst.outPin = int16(i)
			break
		}
	}
	d.Instances = append(d.Instances, inst)
	d.instByName[name] = inst
	d.jn.instRev = append(d.jn.instRev, 0)
	d.bumpTopo()
	return inst, nil
}

// AddNet creates a new, unconnected net.
func (d *Design) AddNet(name string) (*Net, error) {
	if _, dup := d.netByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate net %q", name)
	}
	n := &Net{ID: len(d.Nets), Name: name}
	d.Nets = append(d.Nets, n)
	d.netByName[name] = n
	d.jn.netRev = append(d.jn.netRev, 0)
	d.bumpTopo()
	return n, nil
}

// AddPort creates a top-level port. Input ports drive their net; output
// ports load it.
func (d *Design) AddPort(name string, dir cell.Dir, n *Net) (*Port, error) {
	if _, dup := d.portByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate port %q", name)
	}
	p := &Port{Name: name, Dir: dir, Net: n}
	switch dir {
	case cell.DirIn, cell.DirClk:
		if n.HasDriver() {
			return nil, fmt.Errorf("netlist: net %q already driven", n.Name)
		}
		n.DriverPort = p
	case cell.DirOut:
		p.Cap = 4.0 // default external load, fF
		n.SinkPorts = append(n.SinkPorts, p)
	}
	d.Ports = append(d.Ports, p)
	d.portByName[name] = p
	d.bumpNet(n)
	d.bumpTopo()
	return p, nil
}

// Connect binds the named pin of inst to net n.
func (d *Design) Connect(inst *Instance, pinName string, n *Net) error {
	idx := -1
	for i, p := range inst.Master.Pins {
		if p.Name == pinName {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("netlist: instance %q (%s) has no pin %q", inst.Name, inst.Master.Name, pinName)
	}
	if inst.nets[idx] != nil {
		return fmt.Errorf("netlist: pin %s/%s already connected", inst.Name, pinName)
	}
	ref := PinRef{Inst: inst, Pin: idx}
	if inst.Master.Pins[idx].Dir == cell.DirOut {
		if n.HasDriver() {
			return fmt.Errorf("netlist: net %q already driven", n.Name)
		}
		n.Driver = ref
	} else {
		n.Sinks = append(n.Sinks, ref)
	}
	inst.nets[idx] = n
	d.bumpNet(n)
	d.bumpTopo()
	return nil
}

// NetOf returns the net on the named pin of inst (nil if unconnected or no
// such pin).
func (d *Design) NetOf(inst *Instance, pinName string) *Net {
	for i, p := range inst.Master.Pins {
		if p.Name == pinName {
			return inst.nets[i]
		}
	}
	return nil
}

// NetAt returns the net bound to pin index i of inst.
func (d *Design) NetAt(inst *Instance, i int) *Net {
	if i < 0 || i >= len(inst.nets) {
		return nil
	}
	return inst.nets[i]
}

// Instance returns the named instance, or nil.
func (d *Design) Instance(name string) *Instance { return d.instByName[name] }

// Net returns the named net, or nil.
func (d *Design) Net(name string) *Net { return d.netByName[name] }

// Port returns the named port, or nil.
func (d *Design) Port(name string) *Port { return d.portByName[name] }

// OutputNet returns the net on the instance's output pin, or nil. A
// single slice lookup: the output pin index is cached at AddInstance.
func (d *Design) OutputNet(inst *Instance) *Net {
	return d.NetAt(inst, int(inst.outPin))
}

// InputNets returns the nets on the instance's input (and clock) pins.
func (d *Design) InputNets(inst *Instance) []*Net {
	var out []*Net
	for i, p := range inst.Master.Pins {
		if p.Dir != cell.DirOut {
			if n := d.NetAt(inst, i); n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}
