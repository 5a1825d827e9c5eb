package place

import (
	"fmt"
	"slices"

	"repro/internal/dense"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/partition"
)

// GlobalOptions tunes the recursive min-cut bisection placer.
type GlobalOptions struct {
	// LeafCells stops recursion once a region holds this few cells.
	LeafCells int
	// FM configures the per-cut partitioner.
	FM partition.FMOptions
	// MaxNetDegree excludes huge nets from cut objectives.
	MaxNetDegree int
	// Workers bounds the bisection frontier's parallelism: all regions
	// of one recursion level bisect concurrently against the
	// level-start location estimates, then the estimate updates apply
	// sequentially in region order — so the placement is byte-identical
	// at any worker count. <= 1 runs serially (same level-snapshot
	// semantics).
	Workers int
	// Par accumulates fan-out counters when set (the place stage drains
	// them into its flow stats).
	Par *par.Stats
}

// DefaultGlobalOptions returns the flow defaults.
func DefaultGlobalOptions() GlobalOptions {
	fm := partition.DefaultFMOptions()
	fm.MaxPasses = 6
	fm.Tolerance = 0.1
	return GlobalOptions{LeafCells: 12, FM: fm, MaxNetDegree: 64}
}

// Global runs recursive min-cut bisection placement of every movable
// instance into the core region, writing inst.Loc. Fixed instances
// (macros) keep their locations and act as terminals. Port locations act
// as terminals too (terminal propagation steers the cut).
//
// This is the classic Breuer-style placement that "placement-driven FM
// min-cut" pseudo-3-D flows build on: deterministic, hierarchy-free, and
// fast enough for 250 k-cell netlists.
func Global(d *netlist.Design, region geom.Rect, opt GlobalOptions) error {
	if region.Empty() {
		return fmt.Errorf("place: empty core region")
	}
	if opt.LeafCells < 2 {
		opt.LeafCells = 2
	}
	nMovable := 0
	for _, inst := range d.Instances {
		if !inst.Fixed && !inst.Master.Function.IsMacro() {
			nMovable++
		}
	}
	if nMovable == 0 {
		return nil
	}
	movable := make([]*netlist.Instance, 0, nMovable)
	for _, inst := range d.Instances {
		if inst.Fixed || inst.Master.Function.IsMacro() {
			continue
		}
		movable = append(movable, inst)
		inst.SetLoc(region.Center()) // initial estimate for terminal propagation
	}

	// Net adjacency once, by instance ID.
	adj := buildAdjacency(d, opt.MaxNetDegree)

	// Level-synchronous recursion: the regions of one level are
	// independent subproblems, so they bisect in parallel — every cut
	// reads the location estimates as of the level start (terminal
	// propagation sees a frozen snapshot), and all estimate updates and
	// leaf spreads apply afterwards, sequentially in region order. The
	// next level therefore has exactly one possible composition,
	// whatever the worker count.
	//
	// Each region's cell list is an exclusively-owned subslice of
	// movable: bisect partitions it in place, so the whole recursion
	// shares one backing array and the frontier never reallocates cell
	// lists. Only regions of more than LeafCells cells split, each in
	// two, so no level after the first holds more than
	// 2·nMovable/(LeafCells+1) regions: the two frontier buffers and
	// the split slots are sized once, from that bound.
	type job struct {
		region geom.Rect
		cells  []*netlist.Instance
	}
	type split struct {
		nl     int // the region's first nl cells go left, the rest right
		lr, rr geom.Rect
		err    error
		ok     bool // false: a leaf, spread in the apply phase
	}
	// One scratch per worker, built on the worker's first cut and
	// dropped with this call.
	scratch := make([]*bisectScratch, max(1, opt.Workers))
	maxLevel := 2*nMovable/(opt.LeafCells+1) + 1
	level := make([]job, 1, maxLevel)
	level[0] = job{region, movable}
	next := make([]job, 0, maxLevel)
	splits := make([]split, maxLevel)
	for len(level) > 0 {
		splits = dense.Grow(splits, len(level)) // within the bound: no-op
		par.ParallelForWorker(opt.Workers, len(level), func(w, i int) {
			j := level[i]
			s := &splits[i]
			if len(j.cells) <= opt.LeafCells {
				s.ok = false
				return
			}
			if scratch[w] == nil {
				scratch[w] = newBisectScratch()
			}
			var left []*netlist.Instance
			left, _, s.lr, s.rr, s.err = bisect(scratch[w], d, adj, j.region, j.cells, opt)
			s.nl, s.ok = len(left), true
		})
		opt.Par.Note(len(level))
		next = next[:0]
		for i, j := range level {
			s := &splits[i]
			if !s.ok {
				spreadLeaf(j.region, j.cells)
				continue
			}
			if s.err != nil {
				return s.err
			}
			// Update location estimates to the new subregion centers so
			// the next level's cuts see propagated terminals.
			left, right := j.cells[:s.nl], j.cells[s.nl:]
			for _, c := range left {
				c.SetLoc(s.lr.Center())
			}
			for _, c := range right {
				c.SetLoc(s.rr.Center())
			}
			next = append(next, job{s.lr, left}, job{s.rr, right})
		}
		level, next = next, level
	}
	return nil
}

// adjacency is the placement view of the netlist in CSR form: per kept
// net the member instances, and per instance the incident net indices.
// Flat index slices instead of maps keep the bisection frontier's inner
// loops on contiguous memory.
type adjacency struct {
	// memberDat[memberOff[ni]:memberOff[ni+1]] are net ni's instances.
	memberOff []int32
	memberDat []*netlist.Instance
	// instNets rows are keyed by instance ID; values are net indices in
	// net insertion order.
	instNets dense.CSR[int32]
	// portLoc[ni] is the representative port location of net ni, valid
	// when hasPort[ni].
	portLoc []geom.Point
	hasPort []bool
}

// keepNet reports whether a net participates in the cut objective.
func keepNet(n *netlist.Net, maxDeg int) bool {
	if n.IsClock || n.Degree() > maxDeg || n.Degree() < 2 {
		return false
	}
	return n.Driver.Valid() || len(n.Sinks) > 0
}

func buildAdjacency(d *netlist.Design, maxDeg int) *adjacency {
	if maxDeg <= 0 {
		maxDeg = 1 << 30
	}
	a := &adjacency{}
	nNets, nMembers := 0, 0
	a.instNets.Reset(len(d.Instances))
	for _, n := range d.Nets {
		if !keepNet(n, maxDeg) {
			continue
		}
		nNets++
		if n.Driver.Valid() {
			nMembers++
			a.instNets.Count(int32(n.Driver.Inst.ID))
		}
		for _, s := range n.Sinks {
			nMembers++
			a.instNets.Count(int32(s.Inst.ID))
		}
	}
	a.instNets.Seal()
	a.memberOff = make([]int32, 1, nNets+1)
	a.memberDat = make([]*netlist.Instance, 0, nMembers)
	a.portLoc = make([]geom.Point, nNets)
	a.hasPort = make([]bool, nNets)
	for _, n := range d.Nets {
		if !keepNet(n, maxDeg) {
			continue
		}
		ni := int32(len(a.memberOff) - 1)
		if n.Driver.Valid() {
			a.memberDat = append(a.memberDat, n.Driver.Inst)
			a.instNets.Append(int32(n.Driver.Inst.ID), ni)
		}
		for _, s := range n.Sinks {
			a.memberDat = append(a.memberDat, s.Inst)
			a.instNets.Append(int32(s.Inst.ID), ni)
		}
		a.memberOff = append(a.memberOff, int32(len(a.memberDat)))
		if n.DriverPort != nil {
			a.portLoc[ni], a.hasPort[ni] = n.DriverPort.Loc, true
		} else if len(n.SinkPorts) > 0 {
			a.portLoc[ni], a.hasPort[ni] = n.SinkPorts[0].Loc, true
		}
	}
	return a
}

// members returns net ni's instances.
func (a *adjacency) members(ni int32) []*netlist.Instance {
	return a.memberDat[a.memberOff[ni]:a.memberOff[ni+1]]
}

// bisectScratch is the per-worker reusable state of one cut: the dense
// inst→local-index map and the net-seen set are epoch-stamped (bumping
// the epoch invalidates both in O(1)), and the hypergraph plus the
// partition engine (with its V-cycle levels) recycle their buffers
// across the whole bisection frontier. One Global call owns its
// workers' scratches, so their memory goes when the call returns.
type bisectScratch struct {
	epoch    uint32
	localIdx []int32  // by instance ID, valid when localEp[id] == epoch
	localEp  []uint32 // by instance ID
	netEp    []uint32 // by adjacency net index
	areas    []float64
	side1    []*netlist.Instance // stable-partition spill buffer
	h        *partition.Hypergraph
	eng      partition.Engine
}

func newBisectScratch() *bisectScratch {
	return &bisectScratch{h: partition.NewHypergraph(nil)}
}

// begin sizes the stamp arrays and opens a new epoch. Freshly grown
// memory is zeroed by the allocator and reused memory holds only past
// epochs, so stale entries can never match the new epoch.
func (sc *bisectScratch) begin(nInsts, nNets int) uint32 {
	sc.epoch++
	if sc.epoch == 0 { // uint32 wrap: invalidate everything the slow way
		dense.Zero(sc.localEp, len(sc.localEp))
		dense.Zero(sc.netEp, len(sc.netEp))
		sc.epoch = 1
	}
	sc.localIdx = dense.Grow(sc.localIdx, nInsts)
	sc.localEp = dense.Grow(sc.localEp, nInsts)
	sc.netEp = dense.Grow(sc.netEp, nNets)
	return sc.epoch
}

// bisect splits cells across the longer axis of region using the
// multilevel min-cut with terminal propagation, returning the two cell
// sets and subregions. The returned slices partition cells' own storage
// in place.
//
//hotpath:kernel
func bisect(sc *bisectScratch, d *netlist.Design, adj *adjacency, region geom.Rect, cells []*netlist.Instance, opt GlobalOptions) (left, right []*netlist.Instance, lr, rr geom.Rect, err error) {
	vertCut := region.W() >= region.H() // vertical cut line splits x

	ep := sc.begin(len(d.Instances), len(adj.hasPort))

	// Build the sub-hypergraph over cells, with two virtual terminals.
	sc.areas = slices.Grow(sc.areas[:0], len(d.Instances)+2)
	totalArea := 0.0
	for i, c := range cells {
		sc.localIdx[c.ID] = int32(i)
		sc.localEp[c.ID] = ep
		a := c.Master.Area()
		sc.areas = append(sc.areas, a)
		totalArea += a
	}
	t0 := len(sc.areas)
	t1 := t0 + 1
	sc.areas = append(sc.areas, 0, 0)
	h := sc.h
	h.ResetCells(sc.areas)
	h.Fixed[t0] = 0
	h.Fixed[t1] = 1
	// Any cut visits each kept net at most once and carves it
	// len(members)+2 pins, so the whole design's bound sizes the
	// hypergraph once per scratch instead of doubling it cut by cut.
	nNets := len(adj.hasPort)
	h.Reserve(nNets, len(adj.memberDat)+2*nNets)

	// Split line position: proportional area split at the midline.
	var mid float64
	if vertCut {
		mid = (region.Lx + region.Ux) / 2
	} else {
		mid = (region.Ly + region.Uy) / 2
	}
	sideOfPoint := func(p geom.Point) uint8 {
		v := p.Y
		if vertCut {
			v = p.X
		}
		if v < mid {
			return 0
		}
		return 1
	}

	for _, c := range cells {
		for _, ni := range adj.instNets.Row(int32(c.ID)) {
			if sc.netEp[ni] == ep {
				continue
			}
			sc.netEp[ni] = ep
			hasExt := [2]bool{}
			for _, m := range adj.members(ni) {
				if sc.localEp[m.ID] == ep {
					h.AddPin(int(sc.localIdx[m.ID]))
				} else {
					hasExt[sideOfPoint(m.Loc)] = true
				}
			}
			if adj.hasPort[ni] {
				hasExt[sideOfPoint(adj.portLoc[ni])] = true
			}
			if hasExt[0] {
				h.AddPin(t0)
			}
			if hasExt[1] {
				h.AddPin(t1)
			}
			h.EndNet()
		}
	}

	sol, err := sc.eng.Multilevel(h, opt.FM)
	if err != nil {
		return nil, nil, geom.Rect{}, geom.Rect{}, fmt.Errorf("place: bisect FM: %w", err)
	}

	// Stable in-place partition: side-0 cells compact to the front in
	// order, side-1 cells spill to scratch and copy back after — the
	// same left/right orders the old append-based split produced.
	nl := 0
	sc.side1 = slices.Grow(sc.side1[:0], len(d.Instances))
	var areaLeft float64
	for i, c := range cells {
		if sol.Side[i] == 0 {
			cells[nl] = c
			nl++
			areaLeft += c.Master.Area()
		} else {
			sc.side1 = append(sc.side1, c)
		}
	}
	copy(cells[nl:], sc.side1)
	left, right = cells[:nl], cells[nl:]
	// Degenerate splits (all cells one side) get a forced even split.
	if len(left) == 0 || len(right) == 0 {
		left, right, areaLeft = forcedSplit(cells)
	}

	frac := 0.5
	if totalArea > 0 {
		frac = areaLeft / totalArea
	}
	if frac < 0.1 {
		frac = 0.1
	}
	if frac > 0.9 {
		frac = 0.9
	}
	if vertCut {
		cut := region.Lx + region.W()*frac
		lr = geom.R(region.Lx, region.Ly, cut, region.Uy)
		rr = geom.R(cut, region.Ly, region.Ux, region.Uy)
	} else {
		cut := region.Ly + region.H()*frac
		lr = geom.R(region.Lx, region.Ly, region.Ux, cut)
		rr = geom.R(region.Lx, cut, region.Ux, region.Uy)
	}
	return left, right, lr, rr, nil
}

// byID sorts instances by ID in place. IDs are unique, so the result is
// a deterministic total order whatever sort algorithm runs underneath.
func byID(cells []*netlist.Instance) {
	slices.SortFunc(cells, func(a, b *netlist.Instance) int { return a.ID - b.ID })
}

// forcedSplit halves the cell list by area when FM degenerates,
// reordering cells in place (the caller owns the slice exclusively).
// Both sides keep at least one cell: a zero total area, or a last cell
// by ID holding more than half of it, would otherwise hand the whole
// set to one side, which then recurses forever.
func forcedSplit(cells []*netlist.Instance) (left, right []*netlist.Instance, areaLeft float64) {
	byID(cells)
	total := 0.0
	for _, c := range cells {
		total += c.Master.Area()
	}
	k := 0
	for k < len(cells)-1 && (k == 0 || areaLeft < total/2) {
		areaLeft += cells[k].Master.Area()
		k++
	}
	return cells[:k], cells[k:], areaLeft
}

// spreadLeaf distributes a leaf region's cells on a small grid inside it.
func spreadLeaf(region geom.Rect, cells []*netlist.Instance) {
	n := len(cells)
	if n == 0 {
		return
	}
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	dx := region.W() / float64(cols)
	dy := region.H() / float64(rows)
	byID(cells) // deterministic order; in place — the region owns the slice
	for i, c := range cells {
		cx := region.Lx + (float64(i%cols)+0.5)*dx
		cy := region.Ly + (float64(i/cols)+0.5)*dy
		c.SetLoc(geom.Pt(cx, cy))
	}
}
