package db

import (
	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// TagNetlist identifies the NETL section of a design file: the full
// netlist.Snapshot — masters (NLDM grids included), instances, nets,
// ports, and the change journal's revision counters, folded into one
// payload so decoding NETL alone is sufficient to rebuild the design
// every other section references.
const TagNetlist = "NETL"

// PutPoint writes a geom.Point as two float64s.
func (w *Writer) PutPoint(p geom.Point) {
	w.PutF64(p.X)
	w.PutF64(p.Y)
}

// Point reads a geom.Point.
func (r *Reader) Point() geom.Point { return geom.Point{X: r.F64(), Y: r.F64()} }

// PutRect writes a geom.Rect as four float64s.
func (w *Writer) PutRect(rc geom.Rect) {
	w.PutF64(rc.Lx)
	w.PutF64(rc.Ly)
	w.PutF64(rc.Ux)
	w.PutF64(rc.Uy)
}

// Rect reads a geom.Rect.
func (r *Reader) Rect() geom.Rect {
	return geom.Rect{Lx: r.F64(), Ly: r.F64(), Ux: r.F64(), Uy: r.F64()}
}

func putNLDM(w *Writer, t *cell.NLDM) {
	w.PutBool(t != nil)
	if t == nil {
		return
	}
	w.PutF64s(t.SlewAxis)
	w.PutF64s(t.LoadAxis)
	w.PutU32(uint32(len(t.Values)))
	for _, row := range t.Values {
		w.PutF64s(row)
	}
}

func readNLDM(r *Reader) *cell.NLDM {
	if !r.Bool() {
		return nil
	}
	t := &cell.NLDM{SlewAxis: r.F64s(), LoadAxis: r.F64s()}
	for i, rows := 0, r.Count(4); r.More(i, rows); i++ {
		t.Values = append(t.Values, r.F64s())
	}
	return t
}

// PutMaster writes a complete cell master, timing tables included.
func PutMaster(w *Writer, m *cell.Master) {
	w.PutString(m.Name)
	w.PutI32(int32(m.Function))
	w.PutI32(int32(m.Drive))
	w.PutF64(m.Width)
	w.PutF64(m.Height)
	w.PutU32(uint32(len(m.Pins)))
	for _, p := range m.Pins {
		w.PutString(p.Name)
		w.PutU8(uint8(p.Dir))
		w.PutF64(p.Cap)
	}
	putNLDM(w, m.Delay)
	putNLDM(w, m.OutSlew)
	w.PutF64(m.Setup)
	w.PutF64(m.Hold)
	w.PutF64(m.Leakage)
	w.PutF64(m.InternalEnergy)
	w.PutF64(m.MaxLoad)
	w.PutI32(int32(m.Track))
	w.PutF64(m.VDD)
}

// ReadMaster reads one cell master. Semantic validation (table shape,
// pin sanity) is the importer's job — netlist.ImportState runs
// Master.Validate on every master it receives.
func ReadMaster(r *Reader) *cell.Master {
	m := &cell.Master{
		Name:     r.String(),
		Function: cell.Function(r.I32()),
		Drive:    int(r.I32()),
		Width:    r.F64(),
		Height:   r.F64(),
	}
	for i, n := 0, r.Count(13); r.More(i, n); i++ { // name len + dir + cap
		p := cell.PinSpec{Name: r.String(), Dir: cell.Dir(r.U8()), Cap: r.F64()}
		if p.Dir > cell.DirClk {
			r.Corruptf("pin %s has direction %d", p.Name, p.Dir)
		}
		m.Pins = append(m.Pins, p)
	}
	m.Delay = readNLDM(r)
	m.OutSlew = readNLDM(r)
	m.Setup = r.F64()
	m.Hold = r.F64()
	m.Leakage = r.F64()
	m.InternalEnergy = r.F64()
	m.MaxLoad = r.F64()
	m.Track = tech.Track(r.I32())
	m.VDD = r.F64()
	return m
}

func putPinSnap(w *Writer, p netlist.PinSnap) {
	w.PutI32(p.Inst)
	w.PutI32(p.Pin)
}

func readPinSnap(r *Reader) netlist.PinSnap {
	return netlist.PinSnap{Inst: r.I32(), Pin: r.I32()}
}

// PutNetlist writes the NETL section payload.
func PutNetlist(w *Writer, sn *netlist.Snapshot) {
	w.PutString(sn.Name)
	w.PutU32(uint32(len(sn.Masters)))
	for _, m := range sn.Masters {
		PutMaster(w, m)
	}
	w.PutU32(uint32(len(sn.Insts)))
	for i := range sn.Insts {
		is := &sn.Insts[i]
		w.PutString(is.Name)
		w.PutI32(is.Master)
		w.PutU8(uint8(is.Tier))
		w.PutPoint(is.Loc)
		w.PutBool(is.Fixed)
	}
	w.PutU32(uint32(len(sn.Nets)))
	for i := range sn.Nets {
		ns := &sn.Nets[i]
		w.PutString(ns.Name)
		w.PutBool(ns.IsClock)
		putPinSnap(w, ns.Driver)
		w.PutU32(uint32(len(ns.Sinks)))
		for _, sink := range ns.Sinks {
			putPinSnap(w, sink)
		}
	}
	w.PutU32(uint32(len(sn.Ports)))
	for i := range sn.Ports {
		ps := &sn.Ports[i]
		w.PutString(ps.Name)
		w.PutU8(uint8(ps.Dir))
		w.PutI32(ps.Net)
		w.PutPoint(ps.Loc)
		w.PutF64(ps.Cap)
	}
	w.PutU64(sn.Journal.TopoRev)
	w.PutU64(sn.Journal.MaxTopo)
	w.PutU64s(sn.Journal.InstRev)
	w.PutU64s(sn.Journal.NetRev)
}

// ReadNetlist reads a NETL payload. It only rebuilds the Snapshot;
// replaying it into a live Design (netlist.ImportState) is the caller's
// step, so structural validation lives in one place.
func ReadNetlist(r *Reader) *netlist.Snapshot {
	sn := &netlist.Snapshot{Name: r.String()}
	for i, n := 0, r.Count(1); r.More(i, n); i++ {
		sn.Masters = append(sn.Masters, ReadMaster(r))
	}
	for i, n := 0, r.Count(26); r.More(i, n); i++ { // name len + master + tier + loc + fixed
		sn.Insts = append(sn.Insts, netlist.InstSnap{
			Name:   r.String(),
			Master: r.I32(),
			Tier:   tech.Tier(r.U8()),
			Loc:    r.Point(),
			Fixed:  r.Bool(),
		})
	}
	for i, n := 0, r.Count(17); r.More(i, n); i++ { // name len + clock + driver + sink count
		ns := netlist.NetSnap{Name: r.String(), IsClock: r.Bool(), Driver: readPinSnap(r)}
		for j, nsk := 0, r.Count(8); r.More(j, nsk); j++ {
			ns.Sinks = append(ns.Sinks, readPinSnap(r))
		}
		sn.Nets = append(sn.Nets, ns)
	}
	for i, n := 0, r.Count(33); r.More(i, n); i++ { // name len + dir + net + loc + cap
		sn.Ports = append(sn.Ports, netlist.PortSnap{
			Name: r.String(),
			Dir:  cell.Dir(r.U8()),
			Net:  r.I32(),
			Loc:  r.Point(),
			Cap:  r.F64(),
		})
	}
	sn.Journal.TopoRev = r.U64()
	sn.Journal.MaxTopo = r.U64()
	sn.Journal.InstRev = r.U64s()
	sn.Journal.NetRev = r.U64s()
	return sn
}
