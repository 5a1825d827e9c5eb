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

	"repro/internal/cell"
	"repro/internal/dense"
	"repro/internal/netlist"
)

// node indices: one timing node per instance (its output pin). Ports and
// register D-pins are handled as graph sources/endpoints rather than
// separate nodes.

// graph is the levelized combinational view of a design. rebuild reuses
// the order/count storage, so a persistent Timer re-levelizing after a
// structural edit allocates nothing once warm.
type graph struct {
	d *netlist.Design
	// order lists every instance in topological order: each data arc
	// into a combinational instance comes from an earlier position.
	order []*netlist.Instance
	// remaining[id] counts combinational instance id's instance-driven
	// data inputs (clock pins and port-driven or floating inputs
	// excluded) whose driver has not entered the order yet.
	remaining []int
}

// rebuild levelizes d into g, reusing g's storage. Sequential cells and
// macros are timing sources (their outputs launch) and sinks (their D
// inputs capture); a combinational instance enters the order only after
// every driver of its data inputs, register and macro drivers included.
// Combinational loops are an error.
func (g *graph) rebuild(d *netlist.Design) error {
	g.d = d
	conn := d.Conn()
	g.remaining = dense.Zero(g.remaining, len(d.Instances))

	// Count the instance-driven data fanins of each combinational cell.
	for _, inst := range d.Instances {
		if timingSource(inst) {
			continue // sources enter the order immediately
		}
		for i, p := range inst.Master.Pins {
			if p.Dir != cell.DirIn {
				continue
			}
			if n := d.NetAt(inst, i); n != nil && n.Driver.Valid() {
				g.remaining[inst.ID]++
			}
		}
	}

	// Kahn's algorithm: sources first, then zero-fanin combinational.
	// g.order doubles as the FIFO queue — every queued instance lands in
	// the order exactly once, in pop order, so a read cursor over the
	// growing slice is the queue.
	g.order = g.order[:0]
	for _, inst := range d.Instances {
		if timingSource(inst) || g.remaining[inst.ID] == 0 {
			g.order = append(g.order, inst)
		}
	}
	for qi := 0; qi < len(g.order); qi++ {
		inst := g.order[qi]
		out := conn.OutputNet(inst)
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
				g.order = append(g.order, sk)
			}
		}
	}
	if len(g.order) != len(d.Instances) {
		return fmt.Errorf("sta: combinational cycle detected (%d of %d instances levelized)",
			len(g.order), len(d.Instances))
	}
	return nil
}

// TopoOrder returns the design's instances in topological order: every
// data arc into a combinational cell comes from an earlier position, so
// a forward sweep sees each cell's inputs final. Power analysis reuses
// this for activity propagation.
func TopoOrder(d *netlist.Design) ([]*netlist.Instance, error) {
	var g graph
	if err := g.rebuild(d); err != nil {
		return nil, err
	}
	return g.order, nil
}
