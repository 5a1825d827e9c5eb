package partition

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"repro/internal/dense"
)

// FMOptions tunes the Fiduccia–Mattheyses engine.
type FMOptions struct {
	// TargetFrac is the desired fraction of total area on side 0
	// (0.5 = balanced bisection).
	TargetFrac float64
	// Tolerance is the allowed deviation of side 0's area fraction from
	// TargetFrac (e.g. 0.05 → ±5 % of total area).
	Tolerance float64
	// MaxPasses bounds the outer improvement loop; a pass that yields no
	// cut reduction terminates early regardless.
	MaxPasses int
	// Seed randomizes the initial assignment when none is supplied.
	Seed int64
}

// DefaultFMOptions returns balanced-bisection defaults.
func DefaultFMOptions() FMOptions {
	return FMOptions{TargetFrac: 0.5, Tolerance: 0.05, MaxPasses: 12, Seed: 1}
}

// Engine is a reusable FM context. One Engine can run many partitions in
// sequence — the placer runs one per bisection node — reusing the
// gain-bucket buffers, the V-cycle's coarse levels, the random stream and
// the permutation buffer between runs, so repeated runs stay off the
// allocator once warm. Every run re-seeds the stream in place from its
// FMOptions.Seed, so a reused engine draws exactly what a fresh one
// would. An Engine must not be shared between goroutines; the zero value
// is ready to use.
type Engine struct {
	st   fmState
	pcg  *rand.PCG  // created on the first seeded run, re-seeded per run
	rng  *rand.Rand // draws from pcg
	perm []int      // permutation buffer (seed assignment, matching order)
	vc   vcycle
}

// FM runs Fiduccia–Mattheyses min-cut improvement on h. If initial is
// non-nil it seeds the assignment (and must respect Fixed pins); otherwise
// a random area-balanced assignment is generated. The returned solution
// satisfies the balance constraint whenever the initial assignment does
// (moves violating it are never accepted).
func FM(h *Hypergraph, initial []uint8, opt FMOptions) (*Solution, error) {
	var e Engine
	return e.FM(h, initial, opt)
}

// FM runs one flat partition on the engine, identically to the
// package-level FM but reusing the engine's buffers.
func (e *Engine) FM(h *Hypergraph, initial []uint8, opt FMOptions) (*Solution, error) {
	opt, err := checkInput(h, initial, opt)
	if err != nil {
		return nil, err
	}
	if initial == nil {
		e.seed(opt.Seed)
	}
	e.solve(h, initial, opt, opt.MaxPasses, 0)
	return Evaluate(h, e.st.side), nil
}

// checkInput validates a partition request and normalizes its options.
func checkInput(h *Hypergraph, initial []uint8, opt FMOptions) (FMOptions, error) {
	if err := h.Validate(); err != nil {
		return opt, err
	}
	if opt.TargetFrac <= 0 || opt.TargetFrac >= 1 {
		return opt, fmt.Errorf("partition: TargetFrac %v out of (0,1)", opt.TargetFrac)
	}
	if opt.MaxPasses <= 0 {
		opt.MaxPasses = 1
	}
	if initial != nil {
		if len(initial) != h.NumCells() {
			return opt, fmt.Errorf("partition: initial has %d entries, want %d", len(initial), h.NumCells())
		}
		for i, f := range h.Fixed {
			if f >= 0 && initial[i] != uint8(f) {
				return opt, fmt.Errorf("partition: initial violates Fixed pin of cell %d", i)
			}
		}
	}
	return opt, nil
}

// pcgStream is the fixed second PCG seed word; FMOptions.Seed is the
// first.
const pcgStream = 0x9e3779b97f4a7c15

// seed re-seeds the engine's stream in place (a PCG is two words, so
// re-seeding costs nothing), creating it on first use.
func (e *Engine) seed(s int64) {
	if e.pcg == nil {
		e.pcg = rand.NewPCG(uint64(s), pcgStream)
		e.rng = rand.New(e.pcg)
		return
	}
	e.pcg.Seed(uint64(s), pcgStream)
}

// solve runs flat FM on h, leaving the assignment in e.st.side: from
// initial when non-nil, otherwise from a random area-balanced start
// drawn from the engine's stream. At most passes passes run; stall > 0
// ends a pass after that many consecutive moves without a new best
// prefix.
func (e *Engine) solve(h *Hypergraph, initial []uint8, opt FMOptions, passes, stall int) {
	st := &e.st
	st.reset(h, opt)
	st.stall = stall
	if initial != nil {
		copy(st.side, initial)
	} else {
		e.perm = dense.Grow(e.perm, h.NumCells())
		seedAssignment(h, st.side, opt, e.rng, e.perm)
	}
	st.area = sideAreas(h, st.side)
	for pass := 0; pass < passes; pass++ {
		if st.runPass() == 0 {
			break
		}
	}
}

// drawPerm fills order with the permutation rng.Perm(len(order)) would
// return, without allocating it.
//
//hotpath:kernel
func drawPerm(rng *rand.Rand, order []int) {
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		order[i], order[j] = order[j], order[i]
	}
}

// seedAssignment produces a random assignment that respects Fixed pins
// and approximates the target fraction by greedy area filling. The free
// cells are visited in the order rng.Perm(len(side)) would return, drawn
// into order (len(side) entries) instead of a fresh slice.
//
//hotpath:kernel
func seedAssignment(h *Hypergraph, side []uint8, opt FMOptions, rng *rand.Rand, order []int) {
	total := h.TotalArea()
	want0 := opt.TargetFrac * total
	var a0 float64
	// Fixed cells first.
	for i, f := range h.Fixed {
		if f >= 0 {
			side[i] = uint8(f)
			if f == 0 {
				a0 += h.Area[i]
			}
		}
	}
	// Free cells in random order, filling side 0 up to its target.
	drawPerm(rng, order)
	for _, i := range order {
		if h.Fixed[i] >= 0 {
			continue
		}
		if a0 < want0 {
			side[i] = 0
			a0 += h.Area[i]
		} else {
			side[i] = 1
		}
	}
}

// fmState holds the gain-bucket machinery for one FM run.
//
// Each gain bucket keeps two intrusive lists, one per side, with a
// global insertion stamp per cell: merging the two lists by descending
// stamp reproduces the single-list scan order exactly, while the split
// lets pickMove skip a whole side of a bucket when its conservative
// area bounds prove the balance filter rejects every cell on it — the
// saturated-side oscillation that otherwise makes the scan quadratic.
type fmState struct {
	h    *Hypergraph
	opt  FMOptions
	side []uint8

	// Per-net side bookkeeping, and per-net weights (h.w, or ones).
	ns   []netSide
	w    []int32
	ones []int32
	// Gain bucket doubly-linked lists: heads[2*b+s] is the head of gain
	// bucket b's side-s chain, nilCell if empty.
	gain    []int32
	next    []int32
	prev    []int32
	stamp   []uint32 // insertion stamp per cell, from 1 each pass; chains are stamp-descending
	stampC  uint32
	heads   []int32
	live    []uint64  // bit b set while gain bucket b holds a cell on either side
	minA    []float64 // conservative per-chain area bounds: every cell
	maxA    []float64 // inserted this pass has minA <= Area <= maxA
	maxDeg  int
	maxGain int // current highest non-empty bucket index
	locked  []bool
	moves   []fmMove // per-pass move log, reused
	stall   int      // > 0: a pass stops this many moves past its best prefix

	area  [2]float64
	total float64

	// Two-slot cache of computed moveFilters keyed by the side-0 area
	// bits: the saturated oscillation alternates between two area states,
	// so both recur constantly.
	fcacheKey  [2]uint64
	fcacheVal  [2]moveFilter
	fcacheOK   [2]bool
	fcacheNext int
}

type fmMove struct {
	cell int32
	gain int32
}

const nilCell = -1

// reserve sizes the per-cell and per-net buffers for n cells and nets
// nets up front. The V-cycle refines from its smallest level to its
// largest; reserving for the largest first keeps every level's reset
// from outgrowing, and leaving to the collector, the buffers of the
// level before.
func (st *fmState) reserve(n, nets int) {
	st.side = dense.Grow(st.side, n)
	st.ns = dense.Grow(st.ns, nets)
	st.gain = dense.Grow(st.gain, n)
	st.next = dense.Grow(st.next, n)
	st.prev = dense.Grow(st.prev, n)
	st.stamp = dense.Grow(st.stamp, n)
	st.locked = dense.Grow(st.locked, n)
	st.ones = dense.Grow(st.ones, nets)
	st.moves = dense.Grow(st.moves, n)[:0]
}

// reset sizes the state's buffers for h, reusing prior capacity.
func (st *fmState) reset(h *Hypergraph, opt FMOptions) {
	n := h.NumCells()
	st.h = h
	st.opt = opt
	st.reserve(n, h.NumNets())
	if h.w != nil {
		st.w = h.w
	} else {
		for i := range st.ones {
			st.ones[i] = 1
		}
		st.w = st.ones
	}
	st.total = h.TotalArea()
	// A free cell's gain is bounded by the weight of its nets; fixed
	// cells never enter a bucket.
	st.maxDeg = 0
	h.cellNets()
	for i := 0; i < n; i++ {
		if h.Fixed[i] >= 0 {
			continue
		}
		d := int(h.cellOff[i+1] - h.cellOff[i])
		if h.w != nil {
			d = 0
			for _, ni := range h.netsOf(i) {
				d += int(h.w[ni])
			}
		}
		if d > st.maxDeg {
			st.maxDeg = d
		}
	}
	st.heads = dense.Grow(st.heads, 2*(2*st.maxDeg+1))
	st.live = dense.Grow(st.live, (2*st.maxDeg+1+63)/64)
	st.minA = dense.Grow(st.minA, len(st.heads))
	st.maxA = dense.Grow(st.maxA, len(st.heads))
	st.fcacheOK = [2]bool{}
	st.fcacheNext = 0
}

// netSide is one net's pin count per side and the XOR of the cells
// behind those pins: when a side holds a single pin, its XOR names that
// pin's cell, so a move finds the lone cell without scanning the net.
type netSide struct {
	cnt, xor [2]int32
}

// recount refreshes the net side bookkeeping from the current
// assignment.
func (st *fmState) recount() {
	h := st.h
	for ni := range st.ns {
		ns := netSide{}
		for _, c := range h.pins[h.netOff[ni]:h.netOff[ni+1]] {
			s := st.side[c]
			ns.cnt[s]++
			ns.xor[s] ^= c
		}
		st.ns[ni] = ns
	}
}

// computeGain returns the cut-size reduction from moving cell c.
func (st *fmState) computeGain(c int) int32 {
	var g int32
	from := st.side[c]
	to := 1 - from
	for _, ni := range st.h.netsOf(c) {
		if st.h.netOff[ni+1]-st.h.netOff[ni] < 2 {
			continue
		}
		if st.ns[ni].cnt[from] == 1 {
			g += st.w[ni] // net leaves the cut
		}
		if st.ns[ni].cnt[to] == 0 {
			g -= st.w[ni] // net enters the cut
		}
	}
	return g
}

func (st *fmState) bucketIdx(g int32) int { return int(g) + st.maxDeg }

// chainOf returns the bucket-chain index of cell c. Cells only change
// side after they are locked and removed (applyMove on the picked cell
// or during rollback), so side[c] here always matches the side at
// insertion time.
func (st *fmState) chainOf(c int32) int {
	return 2*st.bucketIdx(st.gain[c]) + int(st.side[c])
}

func (st *fmState) insert(c int32) {
	ch := st.chainOf(c)
	st.stampC++
	st.stamp[c] = st.stampC
	st.prev[c] = nilCell
	st.next[c] = st.heads[ch]
	if st.heads[ch] != nilCell {
		st.prev[st.heads[ch]] = c
	}
	st.heads[ch] = c
	a := st.h.Area[c]
	if a < st.minA[ch] {
		st.minA[ch] = a
	}
	if a > st.maxA[ch] {
		st.maxA[ch] = a
	}
	b := ch >> 1
	st.live[b>>6] |= 1 << (b & 63)
	if b > st.maxGain {
		st.maxGain = b
	}
}

func (st *fmState) remove(c int32) {
	ch := st.chainOf(c)
	if st.prev[c] != nilCell {
		st.next[st.prev[c]] = st.next[c]
	} else {
		st.heads[ch] = st.next[c]
	}
	if st.next[c] != nilCell {
		st.prev[st.next[c]] = st.prev[c]
	}
	if st.heads[ch&^1] == nilCell && st.heads[ch|1] == nilCell {
		b := ch >> 1
		st.live[b>>6] &^= 1 << (b & 63)
	}
}

// below returns the highest occupied gain bucket under b, or -1. Coarse
// V-cycle levels carry weighted gains over thousands of buckets, almost
// all empty; the occupancy bitmap skips them 64 at a time.
func (st *fmState) below(b int) int {
	b--
	if b < 0 {
		return -1
	}
	w := b >> 6
	word := st.live[w] & (^uint64(0) >> (63 - uint(b&63)))
	for word == 0 {
		if w--; w < 0 {
			return -1
		}
		word = st.live[w]
	}
	return w<<6 + bits.Len64(word) - 1
}

// balancedAfter reports whether moving cell c is acceptable: the result
// must be within tolerance of the target, or — when the current state is
// itself out of tolerance — the move must strictly reduce the imbalance.
// The second clause lets FM repair unbalanced seed assignments (the
// bin-based refinement feeds it those).
//
// The bucket scan does not call this per candidate: pickMove bisects the
// same expressions into per-side area thresholds once per pick (see
// moveFilter), which accepts exactly the cells this predicate accepts.
// This is the semantic reference, kept for the threshold equivalence
// test and the odd caller that only needs one answer.
func (st *fmState) balancedAfter(c int32) bool {
	if st.total <= 0 {
		return true
	}
	a0 := st.area[0]
	if st.side[c] == 0 {
		a0 -= st.h.Area[c]
	} else {
		a0 += st.h.Area[c]
	}
	frac := a0 / st.total
	dev := frac - st.opt.TargetFrac
	if dev >= -st.opt.Tolerance && dev <= st.opt.Tolerance {
		return true
	}
	curDev := st.area[0]/st.total - st.opt.TargetFrac
	if curDev < -st.opt.Tolerance || curDev > st.opt.Tolerance {
		return abs(dev) < abs(curDev)
	}
	return false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// moveFilter is the acceptance test of one pickMove scan, precomputed
// from the current area split: a cell on side s may move iff
// lo[s] < Area[c] <= hi[s]. Because balancedAfter's float expressions
// are monotone in the moved area (every IEEE-754 operation involved is
// monotone), the acceptable areas form an interval; maxAccept bisects
// the float bit patterns against the *same* expressions, so the interval
// bounds are exact and the filter reproduces balancedAfter bit for bit
// while the scan itself does two comparisons per candidate.
type moveFilter struct {
	lo, hi [2]float64
}

func (f *moveFilter) ok(side uint8, area float64) bool {
	return f.lo[side] < area && area <= f.hi[side]
}

// computeFilter derives the per-side area windows for the current state.
func (st *fmState) computeFilter() moveFilter {
	f := moveFilter{lo: [2]float64{-1, -1}, hi: [2]float64{math.Inf(1), math.Inf(1)}}
	if st.total <= 0 {
		return f // balancedAfter accepts everything
	}
	a0, total := st.area[0], st.total
	target, tol := st.opt.TargetFrac, st.opt.Tolerance
	// dev1/dev0 are balancedAfter's deviation after moving area x onto /
	// off side 0 — the identical expression, so rounding agrees.
	dev1 := func(x float64) float64 { return (a0+x)/total - target }
	dev0 := func(x float64) float64 { return (a0-x)/total - target }
	curDev := a0/total - target
	switch {
	case curDev >= -tol && curDev <= tol:
		// In tolerance: a move is fine while it stays inside the window
		// (deviation moves monotonically toward the violated bound).
		f.hi[1] = maxAccept(func(x float64) bool { return dev1(x) <= tol })
		f.hi[0] = maxAccept(func(x float64) bool { return dev0(x) >= -tol })
	case curDev < -tol:
		// Side 0 too light: draining it further can never help.
		f.hi[0] = -1
		// Filling it is accepted while |dev| strictly shrinks (or lands
		// in tolerance): curDev < dev1(x) < -curDev.
		f.lo[1] = maxAccept(func(x float64) bool { return dev1(x) <= curDev })
		f.hi[1] = maxAccept(func(x float64) bool { return dev1(x) < -curDev })
	default: // curDev > tol
		f.hi[1] = -1
		f.lo[0] = maxAccept(func(x float64) bool { return dev0(x) >= curDev })
		f.hi[0] = maxAccept(func(x float64) bool { return dev0(x) > -curDev })
	}
	return f
}

// maxAccept returns the largest non-negative float64 satisfying pred,
// or -1 when even 0 fails. pred must hold on a (possibly empty) prefix
// of the non-negative floats; the bisection runs on the bit
// representation, whose order matches numeric order for non-negative
// values, so the returned threshold is exact.
func maxAccept(pred func(float64) bool) float64 {
	if !pred(0) {
		return -1
	}
	if pred(math.MaxFloat64) {
		return math.Inf(1)
	}
	lo, hi := uint64(0), math.Float64bits(math.MaxFloat64)
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if pred(math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return math.Float64frombits(lo)
}

// runPass performs one FM pass (move every free cell once, keep the best
// prefix) and returns the cut improvement achieved.
func (st *fmState) runPass() int {
	st.recount()
	for i := range st.heads {
		st.heads[i] = nilCell
		st.minA[i] = math.Inf(1)
		st.maxA[i] = math.Inf(-1)
	}
	clear(st.live)
	st.maxGain = 0
	st.stampC = 0 // every free cell is re-inserted below
	free := 0
	for c := range st.gain {
		st.locked[c] = st.h.Fixed[c] >= 0
		if st.locked[c] {
			continue
		}
		st.gain[c] = st.computeGain(c)
		st.insert(int32(c))
		free++
	}

	moves := st.moves[:0] // reserve sized it for every cell
	cum, best, bestIdx := int32(0), int32(0), -1
	bestFeasible := st.inTolerance()
	bestDev := st.deviation()

	for len(moves) < free {
		c := st.pickMove()
		if c == nilCell {
			break
		}
		st.remove(c)
		st.locked[c] = true
		g := st.gain[c]
		st.applyMove(c)
		moves = append(moves, fmMove{c, g})
		cum += g
		// Prefer prefixes that restore balance feasibility; among
		// feasible prefixes, maximize cut gain. While none is feasible —
		// a bin whose pinned cells alone overfill one side — prefer the
		// prefix closest to the window, so the pass still repairs what
		// it can instead of keeping the most skewed state for its cut.
		feas := st.inTolerance()
		dev := st.deviation()
		better := feas && (!bestFeasible || cum > best)
		if !feas && !bestFeasible {
			better = dev < bestDev || (dev == bestDev && cum > best)
		}
		if better {
			best = cum
			bestIdx = len(moves) - 1
			bestFeasible = feas
			bestDev = dev
		} else if st.stall > 0 && len(moves)-1-bestIdx >= st.stall {
			break
		}
	}

	// Roll back moves after the best prefix: sides and areas only. The
	// next pass recounts the nets and recomputes every gain, and after
	// the last pass only the sides are read.
	for i := len(moves) - 1; i > bestIdx; i-- {
		st.flip(moves[i].cell)
	}
	st.moves = moves[:0]
	if best < 0 {
		// A negative-gain prefix is only kept to restore balance; report
		// it as progress so the outer loop runs another pass.
		return 1
	}
	return int(best)
}

// deviation returns the distance of side 0's area fraction from the
// target.
func (st *fmState) deviation() float64 {
	if st.total <= 0 {
		return 0
	}
	return abs(st.area[0]/st.total - st.opt.TargetFrac)
}

// inTolerance reports whether the current side-0 area fraction satisfies
// the balance constraint.
func (st *fmState) inTolerance() bool {
	if st.total <= 0 {
		return true
	}
	dev := st.area[0]/st.total - st.opt.TargetFrac
	return dev >= -st.opt.Tolerance && dev <= st.opt.Tolerance
}

// pickMove returns the highest-gain unlocked cell whose move keeps
// balance, or nilCell.
//
// The scan starts on the balancedAfter reference and switches to the
// bisected threshold filter once a few candidates have been rejected:
// long rejection runs (the saturated-side oscillation of big runs, where
// this scan dominates whole-flow time) then skip entire per-side chains
// through their conservative area bounds, while the placer's many tiny
// runs — whose scans accept almost immediately — never pay the filter's
// bisection cost. Candidates are visited by descending insertion stamp
// across the two side chains, which is exactly the single-list order.
//
//hotpath:kernel
func (st *fmState) pickMove() int32 {
	const filterAfter = 8
	rejected := 0
	haveFilter := false
	var flt moveFilter
	area := st.h.Area
	for b := st.maxGain; b >= 0; b = st.below(b) {
		c0, c1 := st.heads[2*b], st.heads[2*b+1]
		if haveFilter {
			if c0 != nilCell && st.chainDead(2*b, 0, &flt) {
				c0 = nilCell
			}
			if c1 != nilCell && st.chainDead(2*b+1, 1, &flt) {
				c1 = nilCell
			}
		}
		for c0 != nilCell || c1 != nilCell {
			var c int32
			var s uint8
			if c1 == nilCell || (c0 != nilCell && st.stamp[c0] > st.stamp[c1]) {
				c, s = c0, 0
			} else {
				c, s = c1, 1
			}
			var ok bool
			if haveFilter {
				ok = flt.ok(s, area[c])
			} else {
				ok = st.balancedAfter(c)
			}
			if ok {
				st.maxGain = b
				return c
			}
			rejected++
			if s == 0 {
				c0 = st.next[c]
			} else {
				c1 = st.next[c]
			}
			if !haveFilter && rejected >= filterAfter {
				flt = st.cachedFilter()
				haveFilter = true
				if c0 != nilCell && st.chainDead(2*b, 0, &flt) {
					c0 = nilCell
				}
				if c1 != nilCell && st.chainDead(2*b+1, 1, &flt) {
					c1 = nilCell
				}
			}
		}
	}
	return nilCell
}

// chainDead reports whether the per-chain area bounds prove the filter
// rejects every remaining cell of chain ch (side s). The bounds cover
// every cell inserted this pass, hence every cell still in the chain.
func (st *fmState) chainDead(ch int, s uint8, flt *moveFilter) bool {
	return st.minA[ch] > flt.hi[s] || st.maxA[ch] <= flt.lo[s]
}

// cachedFilter returns the moveFilter for the current area split,
// serving repeats from the two-slot cache.
func (st *fmState) cachedFilter() moveFilter {
	key := math.Float64bits(st.area[0])
	for i := 0; i < 2; i++ {
		if st.fcacheOK[i] && st.fcacheKey[i] == key {
			return st.fcacheVal[i]
		}
	}
	f := st.computeFilter()
	st.fcacheKey[st.fcacheNext] = key
	st.fcacheVal[st.fcacheNext] = f
	st.fcacheOK[st.fcacheNext] = true
	st.fcacheNext ^= 1
	return f
}

// flip moves cell c to the other side and its area with it, and returns
// the sides it left and joined.
func (st *fmState) flip(c int32) (from, to uint8) {
	from = st.side[c]
	to = 1 - from
	st.area[from] -= st.h.Area[c]
	st.area[to] += st.h.Area[c]
	st.side[c] = to
	return from, to
}

// applyMove flips cell c's side, updating areas, net counts, and the
// gains of unlocked neighbours.
//
//hotpath:kernel
func (st *fmState) applyMove(c int32) {
	from, to := st.flip(c)
	for _, ni := range st.h.netsOf(int(c)) {
		net := st.h.pins[st.h.netOff[ni]:st.h.netOff[ni+1]]
		if len(net) < 2 {
			continue
		}
		w := st.w[ni]
		ns := &st.ns[ni]
		// Standard FM incremental gain update around the critical net
		// states (0, 1 pins on a side before/after the move), each step
		// worth the net's weight.
		if ns.cnt[to] == 0 {
			// Net was uncut on 'from'; all its cells gain +w.
			for _, x := range net {
				st.bumpGain(x, w)
			}
		} else if ns.cnt[to] == 1 {
			// One cell was alone on 'to'; it loses its +w.
			st.bumpGain(ns.xor[to], -w)
		}
		ns.cnt[from]--
		ns.cnt[to]++
		ns.xor[from] ^= c
		ns.xor[to] ^= c
		if ns.cnt[from] == 0 {
			// Net is now uncut on 'to'; all its cells lose a potential +w.
			for _, x := range net {
				st.bumpGain(x, -w)
			}
		} else if ns.cnt[from] == 1 {
			// One cell is now alone on 'from'; it gains +w. (A second pin
			// of the moving cell itself may be that one; it is locked.)
			st.bumpGain(ns.xor[from], w)
		}
	}
}

// bumpGain adjusts an unlocked cell's gain and its bucket position.
func (st *fmState) bumpGain(c int32, delta int32) {
	if st.locked[c] {
		return
	}
	st.remove(c)
	st.gain[c] += delta
	st.insert(c)
}
