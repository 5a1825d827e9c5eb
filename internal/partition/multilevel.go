package partition

import (
	"slices"

	"repro/internal/dense"
)

// The multilevel V-cycle (hMETIS: Karypis, Aggarwal, Kumar and Shekhar,
// DAC 1997). Coarsening contracts heavy-edge matchings until about
// coarsenTo cells remain, the coarsest level is partitioned by flat FM
// from a random start, and every finer level refines the projected
// assignment with a short, early-exiting FM. Most of the cut is decided
// on a few hundred clusters, so refinement only polishes boundaries
// instead of flat FM walking every cell of a large graph pass after
// pass from a random start.
const (
	// coarsenTo stops coarsening once a level has this few cells.
	coarsenTo = 200
	// coarsenStall stops coarsening when a matching keeps more than this
	// fraction of its level's cells (the graph no longer contracts).
	coarsenStall = 0.9
	// clusterAreaFactor caps a cluster's area at this multiple of the
	// coarsest level's mean cell area, so no cluster grows too heavy for
	// the coarse solve to balance.
	clusterAreaFactor = 1.5
	// refinePasses bounds the FM passes per refined level.
	refinePasses = 2
	// refineStall ends a refinement pass after this many consecutive
	// moves without a new best prefix.
	refineStall = 100
)

// vcycle is the Engine's multilevel state: the coarse levels and the
// coarsening scratch, all retained across runs.
type vcycle struct {
	levels  []*level
	proj    []uint8     // projected assignment of the level being refined
	cand    []candidate // matching state per cell
	touched []int32     // candidates rated for the current cell
	mark    []int32     // coarse cell → last fine net that listed it
	table   []int32     // open-addressing net table: coarse net + 1, 0 = empty
	hash    []uint32    // pin-list hash per coarse net (low bits)
}

// candidate is one cell's matching state, packed so that rating a
// neighbour touches one cache line rather than four arrays: the random
// visiting order makes every neighbour access a likely cache miss.
type candidate struct {
	area   float64
	rating float64 // heavy-edge rating as a partner of the current cell; kept zero between cells
	match  int32   // matching partner (itself: singleton), -1 while unmatched
	fixed  int8
}

// level is one coarse level: its hypergraph and the map from the cells
// of the next finer level onto its cells.
type level struct {
	h    Hypergraph
	area []float64 // backs h.Area
	w    []int32   // backs h.w, sized by the finer level's net count
	cmap []int32   // finer cell → cell of h
}

// Multilevel partitions h by the V-cycle with a fresh engine.
func Multilevel(h *Hypergraph, opt FMOptions) (*Solution, error) {
	var e Engine
	return e.Multilevel(h, opt)
}

// Multilevel partitions h by one multilevel V-cycle: heavy-edge
// coarsening, a random-start FM solve of the coarsest level (with
// opt.MaxPasses passes), and refinement of each projected level with at
// most refinePasses early-exiting FM passes. Balance and Fixed pins
// carry through every level, so the result satisfies the balance
// constraint whenever the coarsest solve reaches it. Every draw comes
// from the engine's stream re-seeded with opt.Seed, so the result
// depends on h and opt only.
func (e *Engine) Multilevel(h *Hypergraph, opt FMOptions) (*Solution, error) {
	return e.vcycle(h, opt, coarsenTo)
}

// vcycle is Multilevel with the coarsening target as a parameter, so
// tests can run whole V-cycles on graphs small enough to solve exactly.
func (e *Engine) vcycle(h *Hypergraph, opt FMOptions, target int) (*Solution, error) {
	opt, err := checkInput(h, nil, opt)
	if err != nil {
		return nil, err
	}
	e.seed(opt.Seed)
	e.st.reserve(h.NumCells(), h.NumNets())
	vc := &e.vc
	nlev := e.coarsen(h, target)
	coarsest := h
	if nlev > 0 {
		coarsest = &vc.levels[nlev-1].h
	}
	e.solve(coarsest, nil, opt, opt.MaxPasses, 0)
	passes := min(refinePasses, opt.MaxPasses)
	for k := nlev - 1; k >= 0; k-- {
		finer := h
		if k > 0 {
			finer = &vc.levels[k-1].h
		}
		cmap := vc.levels[k].cmap
		vc.proj = dense.Grow(vc.proj, finer.NumCells())
		for i, c := range cmap {
			vc.proj[i] = e.st.side[c]
		}
		e.solve(finer, vc.proj, opt, passes, refineStall)
	}
	return Evaluate(h, e.st.side), nil
}

// coarsen builds the coarse levels of h into the engine, down to about
// target cells, and returns how many it built.
func (e *Engine) coarsen(h *Hypergraph, target int) int {
	vc := &e.vc
	maxArea := clusterAreaFactor * h.TotalArea() / float64(target)
	fine, nlev := h, 0
	for fine.NumCells() > target {
		if nlev == len(vc.levels) {
			vc.levels = append(vc.levels, &level{})
		}
		lv := vc.levels[nlev]
		nc := e.contract(fine, lv, maxArea)
		if nc == fine.NumCells() {
			break // nothing matched: the level adds nothing
		}
		nlev++
		if float64(nc) > coarsenStall*float64(fine.NumCells()) {
			break
		}
		fine = &lv.h
	}
	return nlev
}

// contract builds lv as the contraction of fine by a heavy-edge
// matching and returns its cell count. Cells are visited in a random
// order; each unmatched cell pairs with the unmatched neighbour of
// highest rating — the sum, over shared nets, of weight/(pins-1) —
// among those with the same Fixed pin whose merged area stays within
// maxArea. A coarse cell is fixed exactly when its members are. Fine
// nets map to their distinct coarse cells: nets left inside one cluster
// vanish (they can no longer be cut), and nets over the same coarse
// cells merge into one whose weight is their summed weight, so every
// coarse assignment cuts exactly the weight its projection cuts at the
// finer level.
//
//hotpath:kernel
func (e *Engine) contract(fine *Hypergraph, lv *level, maxArea float64) int {
	vc := &e.vc
	n := fine.NumCells()
	fine.cellNets()

	// Heavy-edge matching.
	vc.cand = dense.Grow(vc.cand, n)
	for i := range vc.cand {
		vc.cand[i] = candidate{area: fine.Area[i], match: -1, fixed: fine.Fixed[i]}
	}
	e.perm = dense.Grow(e.perm, n)
	drawPerm(e.rng, e.perm)
	for _, u := range e.perm {
		cu := &vc.cand[u]
		if cu.match >= 0 {
			continue
		}
		vc.touched = vc.touched[:0]
		for _, ni := range fine.netsOf(u) {
			net := fine.Net(int(ni))
			if len(net) < 2 {
				continue
			}
			r := float64(fine.netWeight(int(ni))) / float64(len(net)-1)
			for _, v := range net {
				cv := &vc.cand[v]
				if int(v) == u || cv.match >= 0 || cv.fixed != cu.fixed || cu.area+cv.area > maxArea {
					continue
				}
				if cv.rating == 0 {
					vc.touched = append(vc.touched, v)
				}
				cv.rating += r
			}
		}
		best, bestR := int32(u), 0.0
		for _, v := range vc.touched {
			cv := &vc.cand[v]
			if cv.rating > bestR {
				best, bestR = v, cv.rating
			}
			cv.rating = 0
		}
		cu.match = best
		vc.cand[best].match = int32(u)
	}

	// Coarse cells in order of their lowest member.
	lv.cmap = dense.Grow(lv.cmap, n)
	nc := 0
	for u := 0; u < n; u++ {
		if v := int(vc.cand[u].match); v >= u {
			nc++ // u is its pair's lowest member
		}
	}
	lv.area = dense.Grow(lv.area, nc)
	ch := &lv.h
	ch.ResetCells(lv.area)
	c := int32(0)
	for u := 0; u < n; u++ {
		v := int(vc.cand[u].match)
		if v < u {
			continue
		}
		lv.cmap[u], lv.cmap[v] = c, c
		a := fine.Area[u]
		if v != u {
			a += fine.Area[v]
		}
		lv.area[c] = a
		ch.Fixed[c] = fine.Fixed[u]
		c++
	}

	// Coarse nets, merged through an open-addressing table keyed on the
	// sorted pin list. The finer level's counts bound the coarse ones.
	nets := fine.NumNets()
	ch.Reserve(nets, len(fine.pins))
	lv.w = dense.Grow(lv.w, nets)[:0]
	vc.hash = dense.Grow(vc.hash, nets)[:0]
	vc.mark = dense.Grow(vc.mark, nc)
	for i := range vc.mark {
		vc.mark[i] = -1
	}
	size := uint64(2*nets + 1) // load factor at most 1/2
	vc.table = dense.Zero(vc.table, int(size))
	for ni := 0; ni < nets; ni++ {
		start := len(ch.pins)
		for _, p := range fine.Net(ni) {
			if cc := lv.cmap[p]; vc.mark[cc] != int32(ni) {
				vc.mark[cc] = int32(ni)
				ch.AddPin(int(cc))
			}
		}
		pins := ch.pins[start:]
		if len(pins) < 2 {
			ch.EndNet() // drops it
			continue
		}
		slices.Sort(pins)
		hv := hashPins(pins)
		w := fine.netWeight(ni)
		for slot := hv % size; ; slot = (slot + 1) % size {
			j := vc.table[slot] - 1
			if j < 0 {
				ch.EndNet()
				lv.w = append(lv.w, w)
				vc.hash = append(vc.hash, uint32(hv))
				vc.table[slot] = int32(ch.NumNets())
				break
			}
			if vc.hash[j] == uint32(hv) && slices.Equal(ch.Net(int(j)), pins) {
				ch.pins = ch.pins[:start] // a parallel net: merge its weight
				lv.w[j] += w
				break
			}
		}
	}
	ch.w = lv.w
	return nc
}

// hashPins is FNV-1a over a sorted pin list.
func hashPins(pins []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pins {
		h ^= uint64(p)
		h *= 1099511628211
	}
	return h
}
