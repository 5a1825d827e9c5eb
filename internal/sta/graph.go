// Package sta implements graph-based static timing analysis over a placed
// and extracted design: NLDM delay/slew lookup, Elmore wire delays, slew
// propagation, setup checks against a clock with per-register latency,
// WNS/TNS, per-cell worst slack (the criticality metric feeding the
// timing-based partitioner), and K-worst critical path extraction.
//
// Heterogeneous 3-D designs are timed on their per-tier libraries and
// tier-true extracted loads, with no boundary-cell derates: sign-off
// timing in the paper's flow does not derate (power analysis does).
package sta

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/dense"
	"repro/internal/netlist"
)

// node indices: one timing node per instance (its output pin). Ports and
// register D-pins are handled as graph sources/endpoints rather than
// separate nodes.

// Sink codes in graph.arcTo for arcs that end at no timing node.
const (
	arcClkPin = -1 // an instance clock pin on a signal net
	arcPort   = -2 // an output port
)

// faninEdge is one timing arc into an instance: the driver's instance ID
// and the arc's index into the per-arc arrays (graph.arcTo, Timer.wd).
type faninEdge struct {
	drv, arc int32
}

// graph is the compiled timing graph of one topology revision of a
// design: the topological order, every timing arc as a flat ID-indexed
// row, and the dependency levels of the sweeps. Everything in it is
// structural — connectivity, pin directions and which cells are timing
// sources — so it stays exact until the topology revision moves, and
// nothing in it depends on placement, sizing or extraction. A Timer
// rebuilds its graph in place, reusing the storage; once Fork has shared
// it, the graph is immutable and the next rebuild allocates a new one.
type graph struct {
	// order lists every instance ID in topological order: each data arc
	// into a combinational instance comes from an earlier position. pos
	// is its inverse.
	order, pos []int32
	// src marks the timing sources (registers and macros) the graph was
	// built with; a master swap that flips one is drift (see drifted).
	src []bool
	// early marks instances with a port-driven or floating signal input,
	// which can switch as early as t=0 on the min path.
	early []bool
	// out is each instance's output net ID (-1 when unconnected) and sig
	// whether that net is a signal net: only a signal net carries timing
	// arcs, endpoints and a required time.
	out []int32
	sig []bool
	// arcOff locates each net's timing arcs: net n owns arcs
	// arcOff[n]..arcOff[n+1), one per instance sink and then one per
	// sink port, in net order (the order of the extraction's SinkR). A
	// clock net owns none. arcTo names each arc's sink: an instance ID
	// for a data pin, arcClkPin or arcPort otherwise.
	arcOff, arcTo []int32
	// fanin holds every instance's incoming data arcs (rows by instance
	// ID) in driver position order, so the strict-comparison tie-breaks
	// depend only on the structure.
	fanin dense.CSR[faninEdge]
	// fanout holds, per driver, the topological positions of the
	// combinational sinks its data arcs reach: the nodes to mark dirty
	// when its output moves.
	fanout dense.CSR[int32]
	// ends holds, per driver, its endpoint arcs: register and macro data
	// sinks, then output ports, in net order. Result.endSlack lists the
	// endpoints by driver in reverse topological position order, and
	// endStart is each driver's first entry there.
	ends     dense.CSR[int32]
	endStart []int32
	// flev/blev group topological positions into dependency levels of
	// the forward and backward sweeps: nodes within a level are mutually
	// independent, so the full pass runs each level as one parallel
	// fan-out over the level's flat row.
	flev, blev dense.CSR[int32]
	// remaining and lvl are build scratch.
	remaining, lvl []int32
	// shared is set once a fork reads this graph.
	shared atomic.Bool
}

// levelize orders d's instances topologically into g.order. Sequential
// cells and macros are timing sources (their outputs launch) and sinks
// (their D inputs capture); a combinational instance enters the order
// only after every driver of its data inputs, register and macro drivers
// included. Combinational loops are an error.
func (g *graph) levelize(d *netlist.Design) error {
	conn := d.Conn()
	n := len(d.Instances)
	g.remaining = dense.Zero(g.remaining, n)

	// Count the instance-driven data fanins of each combinational cell
	// (clock pins and port-driven or floating inputs excluded).
	for _, inst := range d.Instances {
		if timingSource(inst) {
			continue // sources enter the order immediately
		}
		for i, p := range inst.Master.Pins {
			if p.Dir != cell.DirIn {
				continue
			}
			if nn := d.NetAt(inst, i); nn != nil && nn.Driver.Valid() {
				g.remaining[inst.ID]++
			}
		}
	}

	// Kahn's algorithm: sources first, then zero-fanin combinational.
	// g.order doubles as the FIFO queue — every queued instance lands in
	// the order exactly once, in pop order, so a read cursor over the
	// growing slice is the queue.
	g.order = dense.Grow(g.order, n)[:0]
	for _, inst := range d.Instances {
		if timingSource(inst) || g.remaining[inst.ID] == 0 {
			g.order = append(g.order, int32(inst.ID))
		}
	}
	for qi := 0; qi < len(g.order); qi++ {
		out := conn.OutputNet(d.Instances[g.order[qi]])
		if out == nil {
			continue
		}
		for _, s := range out.Sinks {
			sk := s.Inst
			if timingSource(sk) || s.Spec().Dir == cell.DirClk {
				continue
			}
			g.remaining[sk.ID]--
			if g.remaining[sk.ID] == 0 {
				g.order = append(g.order, int32(sk.ID))
			}
		}
	}
	if len(g.order) != n {
		return fmt.Errorf("sta: combinational cycle detected (%d of %d instances levelized)", len(g.order), n)
	}
	return nil
}

// build compiles d into g, reusing g's storage.
func (g *graph) build(d *netlist.Design) error {
	if err := g.levelize(d); err != nil {
		return err
	}
	conn := d.Conn()
	n, nn := len(d.Instances), len(d.Nets)
	g.pos = dense.Grow(g.pos, n)
	for p, id := range g.order {
		g.pos[id] = int32(p)
	}
	g.src = dense.Grow(g.src, n)
	g.early = dense.Grow(g.early, n)
	g.out = dense.Grow(g.out, n)
	g.sig = dense.Grow(g.sig, n)
	for id, inst := range d.Instances {
		g.src[id] = timingSource(inst)
		g.early[id] = earlyInput(d, inst)
		g.out[id], g.sig[id] = -1, false
		if out := conn.OutputNet(inst); out != nil {
			g.out[id], g.sig[id] = int32(out.ID), !out.IsClock
		}
	}

	g.arcOff = dense.Grow(g.arcOff, nn+1)
	arcs := int32(0)
	for i, net := range d.Nets {
		g.arcOff[i] = arcs
		if !net.IsClock {
			arcs += int32(len(net.Sinks) + len(net.SinkPorts))
		}
	}
	g.arcOff[nn] = arcs
	g.arcTo = dense.Grow(g.arcTo, int(arcs))
	for i, net := range d.Nets {
		if net.IsClock {
			continue
		}
		a := g.arcOff[i]
		for _, s := range net.Sinks {
			g.arcTo[a] = int32(s.Inst.ID)
			if s.Spec().Dir == cell.DirClk {
				g.arcTo[a] = arcClkPin
			}
			a++
		}
		for range net.SinkPorts {
			g.arcTo[a] = arcPort
			a++
		}
	}
	g.buildRows(n)
	g.buildLevels(n)
	return nil
}

// buildRows fills the per-driver rows (fanin, fanout, ends) from the
// arcs, visiting drivers in topological order and each driver's arcs in
// net order, and places the endpoint entries.
func (g *graph) buildRows(n int) {
	g.fanin.Reset(n)
	g.fanout.Reset(n)
	g.ends.Reset(n)
	visit := func(each func(drv, arc, to int32)) {
		for _, drv := range g.order {
			if !g.sig[drv] {
				continue
			}
			net := g.out[drv]
			for a := g.arcOff[net]; a < g.arcOff[net+1]; a++ {
				each(drv, a, g.arcTo[a])
			}
		}
	}
	visit(func(drv, _, to int32) {
		switch {
		case to == arcPort:
			g.ends.Count(drv)
		case to == arcClkPin:
		case g.src[to]:
			g.fanin.Count(to)
			g.ends.Count(drv)
		default:
			g.fanin.Count(to)
			g.fanout.Count(drv)
		}
	})
	g.fanin.Seal()
	g.fanout.Seal()
	g.ends.Seal()
	visit(func(drv, a, to int32) {
		switch {
		case to == arcPort:
			g.ends.Append(drv, a)
		case to == arcClkPin:
		case g.src[to]:
			g.fanin.Append(to, faninEdge{drv: drv, arc: a})
			g.ends.Append(drv, a)
		default:
			g.fanin.Append(to, faninEdge{drv: drv, arc: a})
			g.fanout.Append(drv, g.pos[to])
		}
	})

	g.endStart = dense.Grow(g.endStart, n)
	next := int32(0)
	for p := n - 1; p >= 0; p-- {
		id := g.order[p]
		g.endStart[id] = next
		next += int32(g.ends.Len(id))
	}
}

// buildLevels derives the dependency levels of the sweeps from the rows.
//
// Forward: flevel(v) = 1 + max flevel(d) over v's fanin drivers;
// sources and cells without instance-driven inputs sit at level 0.
// Backward: blevel(v) = 1 + max blevel(s) over v's combinational sinks
// that run the backward computation (drive a signal net); a sink that
// does not keeps its +Inf required time. Only drivers of a signal net
// enter the backward levels. Levels hold topological positions in
// ascending (forward) / descending (backward) position order.
func (g *graph) buildLevels(n int) {
	g.lvl = dense.Zero(g.lvl, n)
	level := g.lvl

	maxF := int32(0)
	for _, id := range g.order {
		lv := int32(0)
		if !g.src[id] {
			for _, e := range g.fanin.Row(id) {
				if l := level[e.drv] + 1; l > lv {
					lv = l
				}
			}
		}
		level[id] = lv
		maxF = max(maxF, lv)
	}
	g.flev.Reset(int(maxF) + 1)
	for _, id := range g.order {
		g.flev.Count(level[id])
	}
	g.flev.Seal()
	for p, id := range g.order {
		g.flev.Append(level[id], int32(p))
	}

	clear(level)
	maxB := int32(-1)
	for p := n - 1; p >= 0; p-- {
		id := g.order[p]
		if !g.sig[id] {
			continue
		}
		lv := int32(0)
		for _, q := range g.fanout.Row(id) {
			if sk := g.order[q]; g.sig[sk] {
				lv = max(lv, level[sk]+1)
			}
		}
		level[id] = lv
		maxB = max(maxB, lv)
	}
	g.blev.Reset(int(maxB) + 1)
	for _, id := range g.order {
		if g.sig[id] {
			g.blev.Count(level[id])
		}
	}
	g.blev.Seal()
	for p := n - 1; p >= 0; p-- {
		if id := g.order[p]; g.sig[id] {
			g.blev.Append(level[id], int32(p))
		}
	}
}

// drifted reports whether a journaled edit that leaves the topology
// revision alone changed what g compiled: a master swap that turned a
// combinational cell into a timing source or back. Pin names and
// directions cannot change that way (netlist.Design.ReplaceMaster
// refuses), so this is the one structural fact to recheck.
func (g *graph) drifted(d *netlist.Design) bool {
	if len(g.src) != len(d.Instances) {
		return true
	}
	for id, inst := range d.Instances {
		if timingSource(inst) != g.src[id] {
			return true
		}
	}
	return false
}

// earlyInput reports whether inst has a port-driven or floating signal
// input.
func earlyInput(d *netlist.Design, inst *netlist.Instance) bool {
	for i, pin := range inst.Master.Pins {
		if pin.Dir != cell.DirIn {
			continue
		}
		if nn := d.NetAt(inst, i); nn == nil || nn.DriverPort != nil {
			return true
		}
	}
	return false
}

func timingSource(inst *netlist.Instance) bool {
	f := inst.Master.Function
	return f.IsSequential() || f.IsMacro()
}

// TopoOrder returns the design's instances in topological order: every
// data arc into a combinational cell comes from an earlier position, so
// a forward sweep sees each cell's inputs final. Power analysis reuses
// this for activity propagation.
func TopoOrder(d *netlist.Design) ([]*netlist.Instance, error) {
	var g graph
	if err := g.levelize(d); err != nil {
		return nil, err
	}
	order := make([]*netlist.Instance, len(g.order))
	for p, id := range g.order {
		order[p] = d.Instances[id]
	}
	return order, nil
}
