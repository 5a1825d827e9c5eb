package netlist

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Snapshot is the pure-data export of a Design: masters deduplicated in
// first-use order, instances/nets/ports by dense index, and the change
// journal's revision counters. It contains no pointers into the live
// design, so it can outlive it, cross a serialization boundary
// (internal/db's NETL section), and be replayed into a fresh Design
// whose object identities, dense IDs, iteration orders, and journal
// state all match the original bit for bit.
type Snapshot struct {
	Name string
	// Masters are the distinct cell masters in first-use order over
	// Instances; InstSnap.Master indexes this list. Masters are stored
	// by value (full NLDM grids included) — restore reconstructs them
	// rather than resolving against a library, which keeps
	// design-specific macros and swept library variants uniform.
	Masters []*cell.Master
	Insts   []InstSnap
	Nets    []NetSnap
	Ports   []PortSnap
	Journal JournalSnap
}

// InstSnap is one instance: its identity, master index, and physical
// state. The dense ID is implicit (the slice index).
type InstSnap struct {
	Name   string
	Master int32
	Tier   tech.Tier
	Loc    geom.Point
	Fixed  bool
}

// PinSnap references one pin of one instance by dense indices; Inst is
// -1 for "no pin" (an undriven or port-driven net).
type PinSnap struct {
	Inst int32
	Pin  int32
}

// NetSnap is one net's connectivity in pin order. SinkPorts are not
// stored: AddPort replay in port order reproduces them exactly.
type NetSnap struct {
	Name    string
	IsClock bool
	Driver  PinSnap
	Sinks   []PinSnap
}

// PortSnap is one top-level port; Net indexes Nets.
type PortSnap struct {
	Name string
	Dir  cell.Dir
	Net  int32
	Loc  geom.Point
	Cap  float64
}

// JournalSnap captures the change journal's counters so revision-keyed
// caches and the stage-boundary monotonicity checks survive a
// save/restore round trip.
type JournalSnap struct {
	TopoRev uint64
	MaxTopo uint64
	InstRev []uint64
	NetRev  []uint64
}

// ExportState captures the design as a Snapshot. The design must be
// quiescent (no concurrent mutation); ExportState itself never mutates.
func (d *Design) ExportState() *Snapshot {
	s := &Snapshot{Name: d.Name}
	masterIdx := make(map[*cell.Master]int32)
	s.Insts = make([]InstSnap, len(d.Instances))
	for i, inst := range d.Instances {
		mi, ok := masterIdx[inst.Master]
		if !ok {
			mi = int32(len(s.Masters))
			masterIdx[inst.Master] = mi
			s.Masters = append(s.Masters, inst.Master)
		}
		s.Insts[i] = InstSnap{
			Name:   inst.Name,
			Master: mi,
			Tier:   inst.Tier,
			Loc:    inst.Loc,
			Fixed:  inst.Fixed,
		}
	}
	pinSnap := func(p PinRef) PinSnap {
		if !p.Valid() {
			return PinSnap{Inst: -1, Pin: -1}
		}
		return PinSnap{Inst: int32(p.Inst.ID), Pin: int32(p.Pin)}
	}
	s.Nets = make([]NetSnap, len(d.Nets))
	for i, n := range d.Nets {
		ns := NetSnap{Name: n.Name, IsClock: n.IsClock, Driver: pinSnap(n.Driver)}
		for _, sink := range n.Sinks {
			ns.Sinks = append(ns.Sinks, pinSnap(sink))
		}
		s.Nets[i] = ns
	}
	s.Ports = make([]PortSnap, len(d.Ports))
	for i, p := range d.Ports {
		ni := int32(-1)
		if p.Net != nil {
			ni = int32(p.Net.ID)
		}
		s.Ports[i] = PortSnap{Name: p.Name, Dir: p.Dir, Net: ni, Loc: p.Loc, Cap: p.Cap}
	}
	s.Journal = JournalSnap{
		TopoRev: d.jn.topoRev,
		MaxTopo: d.jn.maxTopo,
		InstRev: append([]uint64(nil), d.jn.instRev...),
		NetRev:  append([]uint64(nil), d.jn.netRev...),
	}
	return s
}

// ImportState replays a Snapshot into a fresh Design through the public
// construction API — AddInstance/AddNet/AddPort/Connect in the exact
// order the original design acquired its objects — so dense IDs,
// name-map contents, per-net sink order, and SinkPorts order all match
// the original, and the journalmutate contract holds (no mutation
// bypasses the journal). The journal counters are then overwritten with
// the snapshot's values (legal on the freshly built design, which no
// consumer has read yet), so revision-keyed state restored alongside the
// netlist stays coherent.
//
// Every structural inconsistency in the snapshot — out-of-range
// indices, duplicate names, a doubly driven net — is reported as an
// error; ImportState never panics on adversarial input.
func ImportState(s *Snapshot) (*Design, error) {
	for i, m := range s.Masters {
		if m == nil {
			return nil, fmt.Errorf("netlist: import: master %d is nil", i)
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("netlist: import: master %d: %w", i, err)
		}
	}
	d := New(s.Name)
	for i := range s.Insts {
		is := &s.Insts[i]
		if is.Master < 0 || int(is.Master) >= len(s.Masters) {
			return nil, fmt.Errorf("netlist: import: instance %q references master %d of %d", is.Name, is.Master, len(s.Masters))
		}
		if is.Tier != tech.TierBottom && is.Tier != tech.TierTop {
			return nil, fmt.Errorf("netlist: import: instance %q has tier %d", is.Name, is.Tier)
		}
		inst, err := d.AddInstance(is.Name, s.Masters[is.Master])
		if err != nil {
			return nil, fmt.Errorf("netlist: import: %w", err)
		}
		// Direct physical-state writes are safe here: the journal
		// revisions are overwritten below.
		inst.Tier = is.Tier
		inst.Loc = is.Loc
		inst.Fixed = is.Fixed
	}
	for i := range s.Nets {
		ns := &s.Nets[i]
		n, err := d.AddNet(ns.Name)
		if err != nil {
			return nil, fmt.Errorf("netlist: import: %w", err)
		}
		n.IsClock = ns.IsClock
	}
	for i := range s.Ports {
		ps := &s.Ports[i]
		if ps.Net < 0 || int(ps.Net) >= len(d.Nets) {
			return nil, fmt.Errorf("netlist: import: port %q references net %d of %d", ps.Name, ps.Net, len(d.Nets))
		}
		switch ps.Dir {
		case cell.DirIn, cell.DirOut, cell.DirClk:
		default:
			return nil, fmt.Errorf("netlist: import: port %q has direction %d", ps.Name, ps.Dir)
		}
		p, err := d.AddPort(ps.Name, ps.Dir, d.Nets[ps.Net])
		if err != nil {
			return nil, fmt.Errorf("netlist: import: %w", err)
		}
		p.Loc = ps.Loc
		p.Cap = ps.Cap
	}
	connect := func(netIdx int, pin PinSnap, wantDriver bool) error {
		n := d.Nets[netIdx]
		if pin.Inst < 0 || int(pin.Inst) >= len(d.Instances) {
			return fmt.Errorf("netlist: import: net %q pin references instance %d of %d", n.Name, pin.Inst, len(d.Instances))
		}
		inst := d.Instances[pin.Inst]
		if pin.Pin < 0 || int(pin.Pin) >= len(inst.Master.Pins) {
			return fmt.Errorf("netlist: import: net %q pin %d out of range for %s", n.Name, pin.Pin, inst.Master.Name)
		}
		spec := inst.Master.Pins[pin.Pin]
		if isOut := spec.Dir == cell.DirOut; isOut != wantDriver {
			return fmt.Errorf("netlist: import: net %q: pin %s/%s direction does not match its role", n.Name, inst.Name, spec.Name)
		}
		if err := d.Connect(inst, spec.Name, n); err != nil {
			return fmt.Errorf("netlist: import: %w", err)
		}
		return nil
	}
	for i := range s.Nets {
		ns := &s.Nets[i]
		if ns.Driver.Inst >= 0 {
			if err := connect(i, ns.Driver, true); err != nil {
				return nil, err
			}
		}
		for _, sink := range ns.Sinks {
			if err := connect(i, sink, false); err != nil {
				return nil, err
			}
		}
	}
	if err := d.RestoreJournal(s.Journal); err != nil {
		return nil, fmt.Errorf("netlist: import: %w", err)
	}
	return d, nil
}
