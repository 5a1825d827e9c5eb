// Package partition implements the partitioning machinery of the
// heterogeneous 3-D flow: a Fiduccia–Mattheyses (FM) min-cut engine with
// area balancing, the placement-driven bin-based tier partitioning the
// pseudo-3-D flows use, the paper's timing-based pre-assignment of
// critical cells to the fast die, and the repartitioning ECO loop
// (Algorithm 1).
package partition

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dense"
)

// Hypergraph is the partitioning view of a netlist: weighted cells
// connected by hyperedges. Cell and net identities are dense indices so
// the FM engine can use flat arrays.
type Hypergraph struct {
	// Area is the weight of each cell (µm² in flow usage).
	Area []float64
	// Nets lists, per hyperedge, the cells it connects. Degenerate nets
	// (0 or 1 pins) are allowed and ignored.
	Nets [][]int
	// Fixed[i] is -1 for a free cell, or 0/1 to pin cell i to a side.
	// Timing-based partitioning pins critical cells to the fast die this
	// way before FM runs on the remainder.
	Fixed []int8

	// pinsOff/pinsIdx are the inverse map in CSR form, built lazily:
	// pinsIdx[pinsOff[c]:pinsOff[c+1]] are the nets incident to cell c.
	// Two flat arrays instead of a slice per cell keep the FM inner
	// loops on contiguous memory and the build allocation-free per cell.
	pinsOff   []int32
	pinsIdx   []int32
	pinsFill  []int32
	pinsBuilt bool

	// arena backs the pin slices NetBuf hands out; ResetCells rewinds it
	// wholesale once the cleared nets are dead.
	arena []int
}

// NewHypergraph creates a hypergraph with n free cells of the given areas.
func NewHypergraph(areas []float64) *Hypergraph {
	fixed := make([]int8, len(areas))
	for i := range fixed {
		fixed[i] = -1
	}
	return &Hypergraph{Area: areas, Fixed: fixed}
}

// PinBuf is a pin buffer carved from the hypergraph's arena by NetBuf.
// It is valid until the next ResetCells rewinds the arena: append pins
// into it and hand it to AddNet (or drop it) before then, and never
// store it into longer-lived structure — the poolescape pass enforces
// this statically.
//
//pool:scoped
type PinBuf []int

// AddNet appends a hyperedge over the given cells.
func (h *Hypergraph) AddNet(cells ...int) {
	h.Nets = append(h.Nets, cells)
	h.pinsBuilt = false // connectivity changed; rebuild lazily
}

// ResetCells reinitializes h to the given cell areas with every cell
// free, clearing the net list while retaining backing storage: the pin
// arena rewinds for NetBuf to re-carve, and the lazy inverse map's
// arrays are reused by the next build. One hypergraph (plus one Engine)
// can thereby serve a long sequence of small partitions — the placer's
// bisection frontier, the tier partitioner's bin refinement — without
// touching the allocator once warm. The caller must be done with the
// previous round's pin slices: the reset reclaims their storage.
func (h *Hypergraph) ResetCells(areas []float64) {
	h.Area = areas
	h.Fixed = dense.Grow(h.Fixed, len(areas))
	for i := range h.Fixed {
		h.Fixed[i] = -1
	}
	h.Nets = h.Nets[:0]
	h.arena = h.arena[:0]
	h.pinsBuilt = false
}

// NetBuf returns an empty pin buffer with capacity for max pins, carved
// from the hypergraph's arena, for a subsequent AddNet call. Append up
// to max pins, then pass the buffer to AddNet — the hyperedge keeps it
// (discarding it instead is fine; the reservation is reclaimed at the
// next ResetCells). Sizing the reservation up front means the append
// loop itself can never trigger slice growth, whatever mix of net
// degrees the frontier produces.
//
//pool:boundary the arena carve site; buffers die at the next ResetCells
func (h *Hypergraph) NetBuf(max int) PinBuf {
	if len(h.arena)+max > cap(h.arena) {
		n := 2 * (len(h.arena) + max)
		if n < 1024 {
			n = 1024
		}
		// Slices already handed out keep the old block alive; only new
		// carves move to the fresh one.
		h.arena = make([]int, 0, n)
	}
	off := len(h.arena)
	h.arena = h.arena[:off+max]
	return PinBuf(h.arena[off : off : off+max])
}

// Reserve sizes h so that nets more hyperedges, carved by NetBuf calls
// reserving pins pins in total, fit without reallocating the net list
// or the pin arena. Sizing a hypergraph once from known bounds replaces
// the doubling growth that leaves every outgrown block to the
// collector.
func (h *Hypergraph) Reserve(nets, pins int) {
	h.Nets = slices.Grow(h.Nets, nets)
	if len(h.arena)+pins > cap(h.arena) {
		// As in NetBuf: slices already handed out keep the old block.
		h.arena = make([]int, 0, pins)
	}
}

// NumCells returns the cell count.
func (h *Hypergraph) NumCells() int { return len(h.Area) }

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
	for ni, net := range h.Nets {
		for _, c := range net {
			if c < 0 || c >= n {
				return fmt.Errorf("partition: net %d references cell %d of %d", ni, c, n)
			}
		}
	}
	return nil
}

// cellNets builds the cell→nets inverse map on first use, reusing the
// CSR arrays of any prior build.
func (h *Hypergraph) cellNets() {
	if h.pinsBuilt {
		return
	}
	n := len(h.Area)
	off := dense.Zero(h.pinsOff, n+1)
	for _, net := range h.Nets {
		for _, c := range net {
			off[c+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	idx := dense.Grow(h.pinsIdx, int(off[n]))
	fill := dense.Grow(h.pinsFill, n)
	copy(fill, off[:n])
	for ni, net := range h.Nets {
		for _, c := range net {
			idx[fill[c]] = int32(ni)
			fill[c]++
		}
	}
	h.pinsOff, h.pinsIdx, h.pinsFill = off, idx, fill
	h.pinsBuilt = true
}

// netsOf returns the nets incident to cell c, in insertion order.
func (h *Hypergraph) netsOf(c int) []int32 {
	h.cellNets()
	return h.pinsIdx[h.pinsOff[c]:h.pinsOff[c+1]]
}

// cellDeg returns the number of net pins on cell c.
func (h *Hypergraph) cellDeg(c int) int {
	h.cellNets()
	return int(h.pinsOff[c+1] - h.pinsOff[c])
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
// a cached copy maintained incrementally by FM).
func CutSize(h *Hypergraph, side []uint8) int {
	cut := 0
	for _, net := range h.Nets {
		if len(net) < 2 {
			continue
		}
		s0 := side[net[0]]
		for _, c := range net[1:] {
			if side[c] != s0 {
				cut++
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
