// Package partition implements the partitioning machinery of the
// heterogeneous 3-D flow: a multilevel Fiduccia–Mattheyses (FM) min-cut
// engine with area balancing, the placement-driven bin-based tier
// partitioning the pseudo-3-D flows use, the paper's timing-based
// pre-assignment of critical cells to the fast die, and the
// repartitioning ECO loop (Algorithm 1).
package partition

import (
	"fmt"
	"math"

	"repro/internal/dense"
)

// Hypergraph is the partitioning view of a netlist: weighted cells
// connected by hyperedges. Cell and net identities are dense indices,
// and the nets live in one flat CSR pin array, so the FM engine works on
// contiguous int32 memory and a rebuilt hypergraph reuses its storage.
type Hypergraph struct {
	// Area is the weight of each cell (µm² in flow usage).
	Area []float64
	// Fixed[i] is -1 for a free cell, or 0/1 to pin cell i to a side.
	// Timing-based partitioning pins critical cells to the fast die this
	// way before FM runs on the remainder.
	Fixed []int8

	// netOff/pins hold the nets in CSR form: net ni's cells are
	// pins[netOff[ni]:netOff[ni+1]]. Degenerate nets (0 or 1 pins) are
	// allowed and ignored.
	netOff []int32
	pins   []int32
	// w is the per-net weight of a coarse V-cycle level, where parallel
	// nets merge into one net carrying their summed weight; nil (every
	// caller's hypergraph) means weight 1 everywhere.
	w []int32

	// cellOff/cellNet are the inverse map in CSR form, built lazily:
	// cellNet[cellOff[c]:cellOff[c+1]] are the nets incident to cell c,
	// in net order.
	cellOff   []int32
	cellNet   []int32
	cellBuilt bool
}

// NewHypergraph creates a hypergraph with n free cells of the given areas.
func NewHypergraph(areas []float64) *Hypergraph {
	h := &Hypergraph{}
	h.ResetCells(areas)
	return h
}

// AddNet appends a hyperedge over the given cells.
func (h *Hypergraph) AddNet(cells ...int) {
	for _, c := range cells {
		h.AddPin(c)
	}
	h.netOff = append(h.netOff, int32(len(h.pins)))
	h.cellBuilt = false // connectivity changed; rebuild lazily
}

// AddPin appends cell c to the net under construction; EndNet closes
// it. Together they build a net in place, with no pin slice of its own.
func (h *Hypergraph) AddPin(c int) {
	h.pins = append(h.pins, int32(c))
}

// EndNet closes the net whose pins AddPin appended since the last net
// ended. A net of fewer than two pins can never be cut, so EndNet drops
// it instead.
func (h *Hypergraph) EndNet() {
	start := h.netOff[len(h.netOff)-1]
	if len(h.pins)-int(start) < 2 {
		h.pins = h.pins[:start]
		return
	}
	h.netOff = append(h.netOff, int32(len(h.pins)))
	h.cellBuilt = false
}

// ResetCells reinitializes h to the given cell areas with every cell
// free, clearing the net list while retaining backing storage: the pin
// array and the lazy inverse map are reused by the next build. One
// hypergraph (plus one Engine) can thereby serve a long sequence of
// partitions — the placer's bisection frontier, the tier partitioner's
// bin refinement — without touching the allocator once warm.
func (h *Hypergraph) ResetCells(areas []float64) {
	h.Area = areas
	h.Fixed = dense.Grow(h.Fixed, len(areas))
	for i := range h.Fixed {
		h.Fixed[i] = -1
	}
	h.netOff = append(h.netOff[:0], 0)
	h.pins = h.pins[:0]
	h.w = nil
	h.cellBuilt = false
}

// Reserve sizes h so that nets more hyperedges with pins more pins in
// total fit without reallocating. Sizing a hypergraph once from known
// bounds replaces the doubling growth that leaves every outgrown block
// to the collector.
func (h *Hypergraph) Reserve(nets, pins int) {
	h.netOff = dense.Reserve(h.netOff, nets)
	h.pins = dense.Reserve(h.pins, pins)
}

// NumCells returns the cell count.
func (h *Hypergraph) NumCells() int { return len(h.Area) }

// NumNets returns the net count.
func (h *Hypergraph) NumNets() int { return max(len(h.netOff)-1, 0) }

// Net returns net ni's cells. The slice aliases h's storage: read it,
// never write it or keep it past the next change to h.
func (h *Hypergraph) Net(ni int) []int32 {
	return h.pins[h.netOff[ni]:h.netOff[ni+1]]
}

// netWeight returns net ni's weight (1 outside coarse V-cycle levels).
func (h *Hypergraph) netWeight(ni int) int32 {
	if h.w == nil {
		return 1
	}
	return h.w[ni]
}

// Validate checks index ranges and weights.
func (h *Hypergraph) Validate() error {
	n := len(h.Area)
	if len(h.Fixed) != n {
		return fmt.Errorf("partition: Fixed has %d entries, want %d", len(h.Fixed), n)
	}
	for i, a := range h.Area {
		if a < 0 || math.IsNaN(a) {
			return fmt.Errorf("partition: cell %d has invalid area %v", i, a)
		}
	}
	for i, f := range h.Fixed {
		if f < -1 || f > 1 {
			return fmt.Errorf("partition: cell %d has invalid Fixed %d", i, f)
		}
	}
	for ni := 0; ni < h.NumNets(); ni++ {
		for _, c := range h.Net(ni) {
			if c < 0 || int(c) >= n {
				return fmt.Errorf("partition: net %d references cell %d of %d", ni, c, n)
			}
		}
	}
	return nil
}

// cellNets builds the cell→nets inverse map on first use, reusing the
// CSR arrays of any prior build. Row c is filled through cellOff[c+1]
// as its cursor, which ends on the row's end: no separate cursor array.
func (h *Hypergraph) cellNets() {
	if h.cellBuilt {
		return
	}
	n := len(h.Area)
	off := dense.Zero(h.cellOff, n+2)
	for _, c := range h.pins {
		off[c+2]++
	}
	for i := 2; i < n+2; i++ {
		off[i] += off[i-1]
	}
	idx := dense.Grow(h.cellNet, len(h.pins))
	for ni := 0; ni < h.NumNets(); ni++ {
		for _, c := range h.Net(ni) {
			idx[off[c+1]] = int32(ni)
			off[c+1]++
		}
	}
	h.cellOff, h.cellNet = off[:n+1], idx
	h.cellBuilt = true
}

// netsOf returns the nets incident to cell c, in net order.
func (h *Hypergraph) netsOf(c int) []int32 {
	h.cellNets()
	return h.cellNet[h.cellOff[c]:h.cellOff[c+1]]
}

// TotalArea returns the sum of cell areas.
func (h *Hypergraph) TotalArea() float64 {
	t := 0.0
	for _, a := range h.Area {
		t += a
	}
	return t
}

// Solution is a two-way partition assignment.
type Solution struct {
	// Side[i] ∈ {0, 1} is cell i's side.
	Side []uint8
	// AreaSide holds the total area per side.
	AreaSide [2]float64
	// Cut is the number of hyperedges spanning both sides.
	Cut int
}

// CutSize recounts the cut of sides over h (authoritative; Solution.Cut is
// a cached copy maintained incrementally by FM): the number of nets
// spanning both sides, each counted with its weight on a coarse level.
func CutSize(h *Hypergraph, side []uint8) int {
	cut := 0
	for ni := 0; ni < h.NumNets(); ni++ {
		net := h.Net(ni)
		if len(net) < 2 {
			continue
		}
		s0 := side[net[0]]
		for _, c := range net[1:] {
			if side[c] != s0 {
				cut += int(h.netWeight(ni))
				break
			}
		}
	}
	return cut
}

// sideAreas recomputes per-side area.
func sideAreas(h *Hypergraph, side []uint8) [2]float64 {
	var a [2]float64
	for i, s := range side {
		a[s] += h.Area[i]
	}
	return a
}

// Evaluate builds a Solution (with recomputed cut and areas) from a side
// assignment.
func Evaluate(h *Hypergraph, side []uint8) *Solution {
	cp := append([]uint8{}, side...)
	return &Solution{Side: cp, AreaSide: sideAreas(h, cp), Cut: CutSize(h, cp)}
}
