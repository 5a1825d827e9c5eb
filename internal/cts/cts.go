// Package cts synthesizes buffered clock trees: recursive geometric
// bisection of the sink set with buffer insertion at cluster centroids,
// Elmore latency/skew analysis, and the paper's 3-D strategies — the
// COVER-cell approach means the tree is built over the union footprint
// with other-die cells invisible as obstructions (Sec. III-A2), and the
// heterogeneous mode places the tree on the low-power top die (the paper
// observes >75 % of clock buffers land there, Table VIII).
package cts

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/route"
	"repro/internal/tech"
)

// Mode selects the tier strategy for clock buffers.
type Mode int

const (
	// Mode2D places every buffer on the single die.
	Mode2D Mode = iota
	// Mode3D places each buffer on the majority tier of what it drives
	// (homogeneous 3-D: both dies carry the same library).
	Mode3D
	// ModeHetero3D biases buffers onto the top (slow, low-power) die,
	// reproducing the paper's top-heavy heterogeneous clock tree; only
	// leaf buffers whose sinks are all on the bottom die stay there.
	ModeHetero3D
)

// Options tunes tree construction.
type Options struct {
	Mode Mode
	// MaxLeafFanout is the flip-flop count served by one leaf buffer.
	MaxLeafFanout int
	// Libs supplies the per-tier libraries ([tierBottom], [tierTop]); for
	// 2-D only index 0 is used.
	Libs [2]*cell.Library
	// Router estimates clock wire RC; nil uses route.New().
	Router *route.Router
	// Workers bounds the partition phase's parallelism. Partitioning is
	// pure (median splits over sink-location copies), so the resulting
	// tree — and therefore buffer names, IDs, and every metric — is
	// byte-identical at any value; materialization is always sequential
	// in the original DFS post-order. <= 1 runs serially.
	Workers int
	// Par accumulates fan-out counters when set (the CTS stage drains
	// them into its flow stats). Counts are schedule-independent: one
	// batch per build, one task per partition node.
	Par *par.Stats
}

// DefaultOptions returns the flow defaults for the given mode.
func DefaultOptions(mode Mode, libs [2]*cell.Library) Options {
	return Options{Mode: mode, MaxLeafFanout: 24, Libs: libs}
}

// Result describes the synthesized tree.
type Result struct {
	// Buffers lists every inserted clock buffer.
	Buffers []*netlist.Instance
	// Latency maps sequential-instance ID → clock arrival time (ns).
	Latency map[int]float64
	// MaxLatency, MinLatency, and MaxSkew summarize the sink latencies.
	MaxLatency, MinLatency, MaxSkew float64
	// BufferArea is the total clock buffer area (µm²).
	BufferArea float64
	// Wirelength is the total clock-tree wirelength (µm).
	Wirelength float64
	// CountByTier splits the buffers across dies.
	CountByTier [2]int
	// Levels is the tree depth (root = level 1).
	Levels int
}

// LatencyFunc adapts the result to sta.Config.Latency. It copies
// Latency into a slice indexed by instance ID once, so the timer's
// per-endpoint calls index memory instead of hashing; an instance the
// tree does not clock reads 0, as a missing map key does. Later edits to
// Latency do not reach the returned function.
func (r *Result) LatencyFunc() func(*netlist.Instance) float64 {
	n := 0
	for id := range r.Latency {
		n = max(n, id+1)
	}
	lat := make([]float64, n)
	for id, v := range r.Latency {
		lat[id] = v
	}
	return func(inst *netlist.Instance) float64 {
		if inst.ID < len(lat) {
			return lat[inst.ID]
		}
		return 0
	}
}

// node is one buffer of the tree under construction.
type node struct {
	inst     *netlist.Instance
	children []*node
	sinks    []netlist.PinRef
	level    int
}

// Build synthesizes the clock tree for the design's clock net, rewiring
// every clock sink onto leaf buffers. The design is modified in place.
func Build(d *netlist.Design, opt Options) (*Result, error) {
	if opt.MaxLeafFanout < 2 {
		return nil, fmt.Errorf("cts: MaxLeafFanout %d too small", opt.MaxLeafFanout)
	}
	if opt.Libs[0] == nil {
		return nil, fmt.Errorf("cts: missing bottom-tier library")
	}
	if (opt.Mode == Mode3D || opt.Mode == ModeHetero3D) && opt.Libs[1] == nil {
		return nil, fmt.Errorf("cts: 3-D mode needs a top-tier library")
	}
	if opt.Router == nil {
		opt.Router = route.New()
	}

	// Locate the root clock net (port-driven, IsClock).
	var clkNet *netlist.Net
	for _, n := range d.Nets {
		if n.IsClock && n.DriverPort != nil {
			clkNet = n
			break
		}
	}
	if clkNet == nil {
		return nil, fmt.Errorf("cts: no port-driven clock net in %s", d.Name)
	}
	if len(clkNet.Sinks) == 0 {
		return nil, fmt.Errorf("cts: clock net %s has no sinks", clkNet.Name)
	}

	b := &builder{d: d, opt: opt}
	// Phase 1: pure recursive partition of the sink set — no design
	// mutation, so subtrees split in parallel. Phase 2: materialize
	// buffers sequentially in the partition tree's DFS post-order, which
	// is exactly the order the fused recursion used, so cts_buf%d
	// numbering (and every downstream metric) is unchanged.
	// partition reorders its argument in place; hand it a private copy of
	// the net's sink list.
	pt := partition(append([]netlist.PinRef{}, clkNet.Sinks...), 1, opt.MaxLeafFanout, opt.Workers)
	opt.Par.Note(countNodes(pt))
	root, err := b.materialize(pt)
	if err != nil {
		return nil, err
	}

	// Detach original sinks and wire the root buffer to the clock port
	// net.
	if err := d.DisconnectSinks(clkNet); err != nil {
		return nil, err
	}
	if err := d.Connect(root.inst, "A", clkNet); err != nil {
		return nil, err
	}
	// Re-home the moved sinks (they were rewired onto leaf nets during
	// clustering via placeholder nets).
	if err := b.connectLeaves(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("cts: post-build validation: %w", err)
	}

	res := b.analyze(root)
	return res, nil
}

// builder carries construction state.
type builder struct {
	d       *netlist.Design
	opt     Options
	nBuf    int
	leaves  []*node
	maxDeep int
}

// ptree is one node of the pure partition: either a leaf cluster of
// sinks or a median split into two subtrees.
type ptree struct {
	sinks       []netlist.PinRef // leaf clusters only
	left, right *ptree
	level       int
}

// partition recursively median-splits the sink set along the longer
// bbox axis until clusters fit one leaf buffer. Sorting is in place: the
// root call owns a private copy of the sink list and the two subtrees
// recurse on its disjoint halves, so the whole tree shares one backing
// array and the recursion allocates only the tree nodes. The comparator
// is a strict total order (location, instance ID, pin index), so the
// tree is identical at any worker count and under any sort algorithm.
//
//hotpath:kernel
func partition(sinks []netlist.PinRef, level, maxLeaf, workers int) *ptree {
	if len(sinks) <= maxLeaf {
		return &ptree{sinks: sinks, level: level}
	}
	var bb geom.BBox
	for _, s := range sinks {
		bb.Extend(s.Loc())
	}
	r := bb.Rect()
	byX := r.W() >= r.H()
	slices.SortFunc(sinks, func(a, b netlist.PinRef) int {
		la, lb := a.Loc(), b.Loc()
		if byX && la.X != lb.X {
			return cmp.Compare(la.X, lb.X)
		}
		if !byX && la.Y != lb.Y {
			return cmp.Compare(la.Y, lb.Y)
		}
		if a.Inst.ID != b.Inst.ID {
			return cmp.Compare(a.Inst.ID, b.Inst.ID)
		}
		return cmp.Compare(a.Pin, b.Pin)
	})
	mid := len(sinks) / 2
	t := &ptree{level: level}
	if workers > 1 {
		lw := workers / 2
		rw := workers - lw
		par.Do(2,
			func() { t.left = partition(sinks[:mid], level+1, maxLeaf, lw) },
			func() { t.right = partition(sinks[mid:], level+1, maxLeaf, rw) },
		)
	} else {
		t.left = partition(sinks[:mid], level+1, maxLeaf, 1)
		t.right = partition(sinks[mid:], level+1, maxLeaf, 1)
	}
	return t
}

// countNodes sizes the partition tree (schedule-independent task count).
func countNodes(t *ptree) int {
	if t == nil {
		return 0
	}
	return 1 + countNodes(t.left) + countNodes(t.right)
}

// materialize builds the buffer tree for a partition, bottom-up in DFS
// post-order: left subtree, right subtree, parent buffer. Buffer
// numbering therefore matches the original fused recursion exactly.
func (b *builder) materialize(t *ptree) (*node, error) {
	if t.level > b.maxDeep {
		b.maxDeep = t.level
	}
	if t.left == nil {
		return b.newBuffer(t.sinks, nil, t.level)
	}
	left, err := b.materialize(t.left)
	if err != nil {
		return nil, err
	}
	right, err := b.materialize(t.right)
	if err != nil {
		return nil, err
	}
	return b.newBuffer(nil, []*node{left, right}, t.level)
}

// newBuffer creates a buffer instance at the centroid of what it drives.
func (b *builder) newBuffer(sinks []netlist.PinRef, children []*node, level int) (*node, error) {
	var cx, cy float64
	var cnt int
	var tierVotes [2]int
	for _, s := range sinks {
		cx += s.Loc().X
		cy += s.Loc().Y
		tierVotes[s.Inst.Tier]++
		cnt++
	}
	for _, c := range children {
		cx += c.inst.Loc.X
		cy += c.inst.Loc.Y
		tierVotes[c.inst.Tier]++
		cnt++
	}
	if cnt == 0 {
		return nil, fmt.Errorf("cts: empty buffer cluster")
	}
	loc := geom.Pt(cx/float64(cnt), cy/float64(cnt))
	tier := b.pickTier(tierVotes, children == nil)
	lib := b.opt.Libs[0]
	if b.opt.Mode != Mode2D && b.opt.Libs[tier] != nil {
		lib = b.opt.Libs[tier]
	}
	drive := 4
	if children == nil {
		drive = 8 // leaf buffers carry the FF load
	}
	if level == 1 {
		drive = 16
	}
	m := lib.ForDrive(cell.FuncClkBuf, drive)
	if m == nil {
		return nil, fmt.Errorf("cts: library lacks clock buffers")
	}
	inst, err := b.d.AddInstance(fmt.Sprintf("cts_buf%d", b.nBuf), m)
	if err != nil {
		return nil, err
	}
	b.nBuf++
	inst.SetLoc(loc)
	inst.SetTier(tier)

	out, err := b.d.AddNet(inst.Name + "_net")
	if err != nil {
		return nil, err
	}
	out.IsClock = true
	if err := b.d.Connect(inst, "Y", out); err != nil {
		return nil, err
	}
	for _, c := range children {
		if err := b.d.Connect(c.inst, "A", out); err != nil {
			return nil, err
		}
	}
	n := &node{inst: inst, children: children, sinks: sinks, level: level}
	if children == nil {
		b.leaves = append(b.leaves, n)
	}
	return n, nil
}

// pickTier applies the mode's tier policy.
func (b *builder) pickTier(votes [2]int, leaf bool) tech.Tier {
	switch b.opt.Mode {
	case Mode2D:
		return tech.TierBottom
	case ModeHetero3D:
		// Top-die bias: only all-bottom clusters stay on the bottom die.
		// Keeping (almost) the whole tree in one library keeps sibling
		// latencies correlated — mixing tiers level-by-level was measured
		// to inflate critical-path skew.
		_ = leaf
		if votes[tech.TierTop] == 0 {
			return tech.TierBottom
		}
		return tech.TierTop
	default: // Mode3D: majority
		if votes[tech.TierTop] > votes[tech.TierBottom] {
			return tech.TierTop
		}
		return tech.TierBottom
	}
}

// connectLeaves wires each leaf buffer's output to its flip-flop clock
// pins (deferred until the original net is released).
func (b *builder) connectLeaves() error {
	for _, leaf := range b.leaves {
		out := b.d.OutputNet(leaf.inst)
		for _, s := range leaf.sinks {
			if err := b.d.Connect(s.Inst, s.Spec().Name, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// analyze computes latencies and summary metrics over the finished tree.
func (b *builder) analyze(root *node) *Result {
	res := &Result{
		Latency:    make(map[int]float64),
		MinLatency: math.Inf(1),
		Levels:     b.maxDeep,
	}
	avgR := b.opt.Router.Stack.AvgR()
	avgC := b.opt.Router.Stack.AvgC()
	miv := b.opt.Router.MIV

	var walk func(n *node, arrival, inSlew float64)
	walk = func(n *node, arrival, inSlew float64) {
		res.Buffers = append(res.Buffers, n.inst)
		res.BufferArea += n.inst.Master.Area()
		res.CountByTier[n.inst.Tier]++

		// Load on this buffer: child/FF pin caps plus wire cap.
		out := b.d.OutputNet(n.inst)
		wl := 0.0
		for _, s := range out.Sinks {
			wl += n.inst.Loc.ManhattanDist(s.Loc())
		}
		res.Wirelength += wl
		load := out.TotalPinCap() + wl*avgC

		bd := n.inst.Master.Delay.Lookup(inSlew, load)
		outSlew := n.inst.Master.OutSlew.Lookup(inSlew, load)
		after := arrival + bd

		for _, c := range n.children {
			dist := n.inst.Loc.ManhattanDist(c.inst.Loc)
			wd := tech.RCps(dist*avgR, dist*avgC/2+c.inst.Master.InputCap("A"))
			if c.inst.Tier != n.inst.Tier {
				wd += tech.RCps(miv.R, miv.C)
			}
			walk(c, after+wd, outSlew+wd)
		}
		for _, s := range n.sinks {
			dist := n.inst.Loc.ManhattanDist(s.Loc())
			wd := tech.RCps(dist*avgR, dist*avgC/2+s.Spec().Cap)
			if s.Inst.Tier != n.inst.Tier {
				wd += tech.RCps(miv.R, miv.C)
			}
			lat := after + wd
			res.Latency[s.Inst.ID] = lat
			if lat > res.MaxLatency {
				res.MaxLatency = lat
			}
			if lat < res.MinLatency {
				res.MinLatency = lat
			}
		}
	}
	walk(root, 0, 0.02)
	if math.IsInf(res.MinLatency, 1) {
		res.MinLatency = 0
	}
	res.MaxSkew = res.MaxLatency - res.MinLatency
	return res
}
