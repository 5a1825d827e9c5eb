package sta

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/dense"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/route"
	"repro/internal/tech"
)

// ErrDiverged reports that the incremental engine's retained view no
// longer matches ground truth — a corrupted extraction cache, a rewound
// journal, or any other silent-wrong-data condition an audit caught.
// The flow's degradation path reacts by invalidating caches, forcing
// full-STA recomputes, and re-running the stage.
var ErrDiverged = fmt.Errorf("sta: incremental engine diverged from ground truth")

// TimerStats counts engine work for the observability report.
type TimerStats struct {
	// FullUpdates and IncrementalUpdates count Update calls by kind.
	FullUpdates, IncrementalUpdates int64
	// NodesReevaluated totals per-instance forward recomputations across
	// all updates (a full update counts every instance).
	NodesReevaluated int64
	// ParBatches and ParTasks count the full pass's parallel fan-outs
	// (extraction, forward levels, backward levels) and the work items
	// they dispatched. Both count scheduled work, so they are
	// identical at any Config.Workers value.
	ParBatches, ParTasks int64
	// RequiredSweeps counts the on-demand backward sweeps that settled
	// required times owed by incremental updates, and RequiredNodes the
	// drivers those sweeps recomputed. A full update computes required
	// times eagerly and counts in neither.
	RequiredSweeps, RequiredNodes int64
}

// Timer is a persistent incremental timing session over one design. At
// each Update it reads the design's change journal: instances whose
// revision moved since the last update (master swaps, placement moves,
// tier changes) re-propagate only from the affected cells outward, while
// a moved topology revision (buffer insertion, reconnection) falls back
// to an exact full recompute. Every read of the retained Result answers
// what a fresh Analyze would report — bit for bit, including tie-breaks.
//
// Required times are settled on demand. An incremental Update leaves
// arrivals, slews, delays and the endpoint table (hence WNS, TNS, the
// hold rollups, the endpoint counts and CriticalPaths) exact, but only
// records which drivers' required times it may have moved. The first
// read that needs required times — Result.SlackMap, CellSlack or
// Snapshot, or an explicit Result.Settle — settles everything owed
// since the last settle in one backward sweep; reads that need none
// (the what-if server's timing queries, the repartitioning ECO's
// oracle) never pay for it. A settle computes from the design as the
// last Update saw it, so it panics with "sta: settle after edit: ..."
// when the topology or an instance revision moved since that Update:
// call Update first.
//
// The sweeps read flat ID-indexed arrays only: the compiled graph (g)
// for structure, and per-arc wire delays (wd) and per-net driver loads
// (load) for the electrical view. wd and load are refreshed from the RC
// store for every net the full pass extracts and, in an incremental
// update, for every net of a changed instance — the rule that keeps
// them exact, since a master swap moves a sink's pin capacitance
// without moving any net revision.
//
// A Timer belongs to one flow and is not safe for concurrent use; only
// reads of its Result may run concurrently with each other (the settle
// is serialized). It only reads the design, so several Timers may share
// a design that no one mutates.
type Timer struct {
	d   *netlist.Design
	cfg Config
	res *Result
	lat func(*netlist.Instance) float64

	// g is the compiled graph of topology revision topoRev, shared
	// read-only with forks (see Fork).
	g       *graph
	topoRev uint64
	// ex is the per-net RC store the timer reads wire parasitics from:
	// Config.Router itself when it is a *route.Cache, a store wrapping it
	// otherwise. Clock nets carry no RC for timing (their delay comes
	// from the CTS latency model).
	ex *route.Cache
	// wd holds every arc's Elmore wire delay (indexed like g.arcTo) and
	// load every net's driver load: wire plus pin capacitance for a
	// signal net, pin capacitance alone for a clock net.
	wd, load []float64

	// Forward-pass input-pin state replayEffective rebuilds. Kept
	// outside Result: only combinational instances' entries carry meaning.
	arrIn, arrMinIn, slewIn, arrMinOut []float64

	// Per-Update work-set buffers, reused across calls. The marks are
	// all clear between updates: each walk clears the ones it set.
	seedMarked []bool // by instance ID
	netMarked  []bool // by net ID
	seeds      []int32
	dirty      posSet // by topological position

	// pend marks, by topological position, the drivers whose required
	// time may be stale: every node an incremental update re-evaluated
	// and each of its fanin drivers, accumulated over all updates since
	// required times were last exact. settle drains it; res.owed says
	// whether it holds anything. settleMu serializes concurrent readers.
	pend     posSet
	settleMu sync.Mutex

	// instRev holds the journal revisions (by instance ID) the retained
	// state reflects; Update diffs the design against them. Net
	// revisions live in the store's slots.
	instRev []uint64

	fresh bool // no update has run yet
	stats TimerStats
	// netEntries counts the net memberships (driver and sinks) the seed
	// walks visited: the cost the linearity test bounds.
	netEntries int64
}

// posSet is a set of topological positions, one bit each. The sweeps
// visit its members in position order a word at a time, clearing each
// as they take it, so a drained set is empty again at no extra cost.
type posSet []uint64

func (s posSet) add(p int32) { s[p>>6] |= 1 << (p & 63) }

// posWords is the posSet length covering n positions.
func posWords(n int) int { return (n + 63) >> 6 }

// NewTimer validates and defaults cfg exactly like Analyze and returns a
// session whose first Update performs a full analysis.
func NewTimer(d *netlist.Design, cfg Config) (*Timer, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("sta: period %v must be positive", cfg.Period)
	}
	if cfg.Router == nil {
		cfg.Router = route.New()
	}
	if cfg.InputSlew <= 0 {
		cfg.InputSlew = 0.02
	}
	lat := cfg.Latency
	if lat == nil {
		lat = func(*netlist.Instance) float64 { return 0 }
	}
	ex, ok := cfg.Router.(*route.Cache)
	if !ok {
		ex = route.NewCache(cfg.Router, d)
	}
	t := &Timer{
		d:     d,
		cfg:   cfg,
		res:   &Result{cfg: cfg, d: d},
		lat:   lat,
		ex:    ex,
		fresh: true,
	}
	return t, nil
}

// Close is a no-op: a Timer registers nothing on the design, so there is
// nothing to release. It stays for callers that pair NewTimer with Close.
func (t *Timer) Close() {}

// Stats returns cumulative engine counters.
func (t *Timer) Stats() TimerStats { return t.stats }

// Extraction returns the RC store the timer reads: its Stats count the
// extraction work, and Audit, Invalidate and Poison act on the store
// the timer refreshes its wire delays and loads from.
func (t *Timer) Extraction() *route.Cache { return t.ex }

// Result returns the retained result of the last Update (zero-valued
// before the first).
func (t *Timer) Result() *Result { return t.res }

// Update brings the retained Result up to date with the design and
// returns it. Instances whose journal revision moved re-propagate from
// the dirty frontier; a moved topology revision — or a frontier so wide
// that selectivity stops paying — recomputes from scratch, required
// times included. An incremental update defers its required times to
// the first read that needs them (see Timer). Either way every read
// answers exactly what a fresh Analyze would report.
func (t *Timer) Update() (*Result, error) {
	full := t.fresh || t.cfg.ForceFull || t.topoRev != t.d.TopoRev()
	if !full {
		seeds, ok := t.resolveSeeds()
		if ok {
			t.incremental(seeds)
		}
		full = !ok
	}
	if full {
		if err := t.fullUpdate(); err != nil {
			return nil, err
		}
	}
	t.fresh = false
	t.summarize()
	return t.res, nil
}

// resolveSeeds turns the instances whose journal revision moved since
// the last update into the set of instances whose forward state must be
// recomputed, and refreshes every net of theirs: the stored extraction
// when its revision moved, then its arcs' wire delays and its driver
// load. The seed set is deliberately a superset: the changed instance
// plus every driver and sink of each of its nets — that covers load
// changes at drivers, wire-delay changes at sibling sinks, and the
// derate dependencies that reach one net away in both directions. Each
// net is walked once however many changed instances share it, so the
// walk costs O(changed pins + entries of the nets they touch).
//
// It reports false when the update must run the full pass instead:
// when the changed instances alone, or the seeds, exceed half the
// design (past that, frontier bookkeeping costs more than it saves),
// or when a changed master flipped a timing source, which the compiled
// graph cannot absorb. The baselines advance as the changes are
// consumed; the full pass resynchronizes them anyway.
func (t *Timer) resolveSeeds() ([]int32, bool) {
	d, g := t.d, t.g
	n := len(d.Instances)
	if len(t.seedMarked) < n {
		t.seedMarked = make([]bool, n)
	}
	if len(t.netMarked) < len(d.Nets) {
		t.netMarked = make([]bool, len(d.Nets))
	}
	marked := t.seedMarked
	seeds := t.seeds[:0]
	revs := d.InstRevs()
	base := t.instRev[:len(revs)]
	for id, rev := range revs {
		if rev != base[id] {
			base[id] = rev
			marked[id] = true
			seeds = append(seeds, int32(id))
		}
	}
	changed := len(seeds)
	ok := changed*2 <= n
	for i := 0; ok && i < changed; i++ {
		ok = timingSource(d.Instances[seeds[i]]) == g.src[seeds[i]]
	}
	if ok {
		add := func(id int) {
			if !marked[id] {
				marked[id] = true
				seeds = append(seeds, int32(id))
			}
		}
		for _, id := range seeds[:changed] {
			inst := d.Instances[id]
			for pi := range inst.Master.Pins {
				net := d.NetAt(inst, pi)
				if net == nil || t.netMarked[net.ID] {
					continue
				}
				t.netMarked[net.ID] = true
				t.netEntries += int64(len(net.Sinks)) + 1
				if net.Driver.Valid() {
					add(net.Driver.Inst.ID)
				}
				for _, s := range net.Sinks {
					add(s.Inst.ID)
				}
				if !net.IsClock {
					t.ex.Refresh(net)
				}
				t.compileNet(net)
			}
		}
		for _, id := range seeds[:changed] {
			inst := d.Instances[id]
			for pi := range inst.Master.Pins {
				if net := d.NetAt(inst, pi); net != nil {
					t.netMarked[net.ID] = false
				}
			}
		}
	}
	for _, id := range seeds {
		marked[id] = false
	}
	t.seeds = seeds
	return seeds, ok && len(seeds)*2 <= n
}

// compileNet refreshes net n's driver load and its arcs' wire delays
// from the RC store, which must hold n's extraction when n is a signal
// net. The pin capacitances sum in TotalPinCap's order.
func (t *Timer) compileNet(n *netlist.Net) {
	if n.IsClock {
		t.load[n.ID] = n.TotalPinCap()
		return
	}
	pin := 0.0
	a := int(t.g.arcOff[n.ID])
	for i, s := range n.Sinks {
		c := s.Spec().Cap
		pin += c
		r, cs := t.ex.Sink(n.ID, i)
		t.wd[a+i] = tech.RCps(r, cs+c)
	}
	a += len(n.Sinks)
	for i, p := range n.SinkPorts {
		pin += p.Cap
		r, cs := t.ex.Sink(n.ID, len(n.Sinks)+i)
		t.wd[a+i] = tech.RCps(r, cs+p.Cap)
	}
	t.load[n.ID] = t.ex.WireCap(n.ID) + pin
}

// syncRevs records every instance's current journal revision as the
// baseline the next Update diffs against.
func (t *Timer) syncRevs() {
	inst := t.d.InstRevs()
	t.instRev = dense.Grow(t.instRev, len(inst))
	copy(t.instRev, inst)
}

// fullUpdate recomputes everything: graph (when the topology revision
// moved or a timing source flipped), revision baselines, extraction and
// the compiled wire delays and loads, forward arrivals, and the backward
// required pass. This is the reference computation — Analyze is exactly
// one of these.
//
// With Config.Workers > 1 the expensive phases fan out without changing
// a single bit of the result: extraction is per-net independent and
// each net writes only its own arcs' delays and its own load; the
// forward sweep runs level-by-level over flev, where a node's
// replayEffective reads only its drivers (all in lower levels, final)
// and it, computeNode and endpointsOf write only the node's own slots
// and its own endpoint entries (placed by g.endStart); the backward
// sweep runs level-by-level over blev. Nothing is owed to a settle
// afterwards.
func (t *Timer) fullUpdate() error {
	d := t.d
	if t.g == nil || t.topoRev != d.TopoRev() || t.g.drifted(d) {
		g := t.g
		if g == nil || g.shared.Load() {
			g = &graph{} // forks still read the old one
		}
		if err := g.build(d); err != nil {
			return err
		}
		t.g, t.topoRev = g, d.TopoRev()
	}
	g := t.g
	t.syncRevs()
	workers := t.cfg.Workers
	// Bring every signal net's stored extraction up to date and compile
	// every net. The store is sized serially; inside the fan-out each net
	// touches only its own slot, arcs and load, so the fill stays
	// deterministic.
	nNets := len(d.Nets)
	t.ex.Grow()
	t.wd = dense.Grow(t.wd, len(g.arcTo))
	t.load = dense.Grow(t.load, nNets)
	par.ParallelFor(workers, nNets, func(i int) {
		n := d.Nets[i]
		if !n.IsClock {
			t.ex.Extract(n)
		}
		t.compileNet(n)
	})
	t.noteFanout(nNets)

	n := len(d.Instances)
	res := t.res
	if len(res.arrOut) != n {
		res.arrOut = dense.Grow(res.arrOut, n)
		res.reqOut = dense.Grow(res.reqOut, n)
		res.delay = dense.Grow(res.delay, n)
		res.slewOut = dense.Grow(res.slewOut, n)
		res.inWire = dense.Grow(res.inWire, n)
		res.pred = dense.Grow(res.pred, n)
		t.arrIn = dense.Grow(t.arrIn, n)
		t.arrMinIn = dense.Grow(t.arrMinIn, n)
		t.slewIn = dense.Grow(t.slewIn, n)
		t.arrMinOut = dense.Grow(t.arrMinOut, n)
	}
	res.endSlack = dense.Grow(res.endSlack, len(g.ends.Dat))
	t.pend = dense.Zero(t.pend, posWords(n))
	res.owed.Store(nil)
	// Per-instance resets, one index-addressed fan-out. Instances with a
	// port-driven or floating signal input can switch as early as t=0 on
	// the min path. ParBatches/ParTasks leave this fan-out out: they keep
	// counting the extraction and the sweeps, as the stage metrics that
	// saved databases carry always have.
	par.ParallelFor(workers, n, func(i int) {
		t.arrIn[i] = 0
		t.arrMinIn[i] = math.Inf(1)
		if g.early[i] {
			t.arrMinIn[i] = 0
		}
		t.slewIn[i] = t.cfg.InputSlew
		res.pred[i] = -1
		res.inWire[i] = 0
		res.reqOut[i] = math.Inf(1)
	})

	// ---------- Forward pass: arrivals, slews, endpoint checks ----------
	// Levels run in order; nodes within a level are independent (their
	// fanin arcs all come from lower levels) and write only their own
	// index-addressed state. A driver's endpoint checks read only its
	// own final arrivals, so they land in its endpoint entries right here.
	for lv := 0; lv < g.flev.Rows(); lv++ {
		level := g.flev.Row(int32(lv))
		par.ParallelFor(workers, len(level), func(k int) {
			id := g.order[level[k]]
			if !g.src[id] {
				t.replayEffective(id)
			}
			t.computeNode(id)
			t.endpointsOf(id)
		})
		t.noteFanout(len(level))
	}

	// ---------- Backward required pass ----------
	// Backward levels hold exactly the drivers of a signal net: a
	// driver's required time depends only on its combinational sinks
	// that themselves run the backward computation — all in lower
	// backward levels, final when the driver computes.
	for lv := 0; lv < g.blev.Rows(); lv++ {
		level := g.blev.Row(int32(lv))
		par.ParallelFor(workers, len(level), func(k int) {
			id := g.order[level[k]]
			if req := t.requiredOf(id); req < res.reqOut[id] {
				res.reqOut[id] = req
			}
		})
		t.noteFanout(len(level))
	}
	t.stats.FullUpdates++
	t.stats.NodesReevaluated += int64(n)
	return nil
}

// noteFanout records one scheduled parallel fan-out of n items (counted
// the same at any worker count — see TimerStats).
func (t *Timer) noteFanout(n int) {
	t.stats.ParBatches++
	t.stats.ParTasks += int64(n)
}

// incremental re-propagates from the seed frontier and rewrites the
// endpoint entries of every driver it re-evaluates; required times are
// left owed to the next settle. Dirty positions are visited in order
// from the lowest seed's word to the highest word marked so far; each
// mark is cleared as it is taken.
func (t *Timer) incremental(seeds []int32) {
	g := t.g
	if w := posWords(len(g.order)); len(t.dirty) < w {
		t.dirty = make(posSet, w)
	}
	dirty, pend := t.dirty, t.pend
	lo, hi := int32(len(dirty)), int32(-1)
	for _, id := range seeds {
		p := g.pos[id]
		dirty.add(p)
		lo, hi = min(lo, p>>6), max(hi, p>>6)
	}

	// Forward sweep in topological order: a node's drivers all sit at
	// earlier positions, final when it replays. Expansion follows data
	// arcs to combinational sinks, which sit at later positions.
	// Sequential sinks hold no live input state; their capture checks
	// are redone by their drivers, which the seeds always include.
	for w := lo; w <= hi; {
		word := dirty[w]
		if word == 0 {
			w++
			continue
		}
		b := int32(bits.TrailingZeros64(word))
		dirty[w] = word &^ (1 << b)
		p := w<<6 | b
		id := g.order[p]
		if !g.src[id] {
			t.replayEffective(id)
		}
		changed := t.computeNode(id)
		t.stats.NodesReevaluated++
		// The node's required time is owed, and so are its fanin
		// drivers', which read its stage delay.
		pend.add(p)
		for _, e := range g.fanin.Row(id) {
			pend.add(g.pos[e.drv])
		}
		if !g.sig[id] {
			continue
		}
		t.endpointsOf(id)
		if !changed {
			continue
		}
		for _, q := range g.fanout.Row(id) {
			dirty.add(q)
			hi = max(hi, q>>6)
		}
	}
	if len(seeds) > 0 {
		t.res.owed.Store(t)
	}
	t.stats.IncrementalUpdates++
}

// settle pays the required times owed by incremental updates: one
// backward sweep in reverse topological order over the pending drivers,
// widened to a driver's fanin drivers whenever its required time moves
// (every position it adds is one the sweep has not passed yet). It
// recomputes from the state the last Update left, so it first checks
// that the design has not been edited since.
func (t *Timer) settle() {
	t.settleMu.Lock()
	defer t.settleMu.Unlock()
	res := t.res
	if res.owed.Load() == nil {
		return // a concurrent reader settled first
	}
	t.requireUnedited()
	g, pend := t.g, t.pend
	for w := int32(len(pend)) - 1; w >= 0; {
		word := pend[w]
		if word == 0 {
			w--
			continue
		}
		b := int32(63 - bits.LeadingZeros64(word))
		pend[w] = word &^ (1 << b)
		id := g.order[w<<6|b]
		if !g.sig[id] {
			continue
		}
		t.stats.RequiredNodes++
		if req := t.requiredOf(id); req != res.reqOut[id] {
			res.reqOut[id] = req
			if !g.src[id] {
				for _, e := range g.fanin.Row(id) {
					pend.add(g.pos[e.drv])
				}
			}
		}
	}
	t.stats.RequiredSweeps++
	res.owed.Store(nil)
}

// requireUnedited panics when the design moved past the revisions the
// last Update consumed: owed required times computed now would mix the
// old arrivals with the new netlist.
func (t *Timer) requireUnedited() {
	const hint = "since the last Timer.Update; call Update before reading SlackMap, CellSlack or Snapshot"
	if rev := t.d.TopoRev(); rev != t.topoRev {
		panic(fmt.Sprintf("sta: settle after edit: topology revision moved from %d to %d %s", t.topoRev, rev, hint))
	}
	for id, rev := range t.d.InstRevs() {
		if rev != t.instRev[id] {
			panic(fmt.Sprintf("sta: settle after edit: instance %s revision moved from %d to %d %s",
				t.d.Instances[id].Name, t.instRev[id], rev, hint))
		}
	}
}

// replayEffective rebuilds the input-pin state a combinational instance
// consumes when it computes its outputs — worst and earliest arrival,
// worst slew — plus its worst-arrival predecessor and incoming wire
// delay. Every driver sits at an earlier topological position, so all
// of them are final when the instance runs. The fanin row is in driver
// position order, so the strict comparisons break ties toward the
// earliest driver at any worker count.
//
//hotpath:kernel
func (t *Timer) replayEffective(id int32) {
	res := t.res
	ai, si := 0.0, t.cfg.InputSlew
	ami := math.Inf(1)
	if t.g.early[id] {
		ami = 0
	}
	pred, inw := int32(-1), 0.0
	for _, e := range t.g.fanin.Row(id) {
		wd := t.wd[e.arc]
		if a := res.arrOut[e.drv] + wd; a > ai {
			ai = a
			pred, inw = e.drv, wd
		}
		if am := t.arrMinOut[e.drv] + wd; am < ami {
			ami = am
		}
		if sw := res.slewOut[e.drv] + wd; sw > si {
			si = sw
		}
	}
	t.arrIn[id], t.arrMinIn[id], t.slewIn[id] = ai, ami, si
	res.pred[id], res.inWire[id] = pred, inw
}

// computeNode recomputes one instance's stage delay, output arrival,
// min-path arrival, and output slew from its output net's load,
// reporting whether any propagated quantity moved (bitwise).
//
//hotpath:kernel
func (t *Timer) computeNode(id int32) bool {
	res, cfg, g := t.res, &t.cfg, t.g
	inst := t.d.Instances[id]

	var load float64
	if out := g.out[id]; out >= 0 {
		load = t.load[out]
	}

	var arr, arrMin, slw, d0 float64
	if g.src[id] {
		// Launch: clock latency + CLK→Q (or access) delay.
		d0 = inst.Master.Delay.Lookup(cfg.InputSlew, load)
		s0 := inst.Master.OutSlew.Lookup(cfg.InputSlew, load)
		arr = t.lat(inst) + d0
		arrMin = arr
		slw = s0
	} else {
		d0 = inst.Master.Delay.Lookup(t.slewIn[id], load)
		s0 := inst.Master.OutSlew.Lookup(t.slewIn[id], load)
		arr = t.arrIn[id] + d0
		am := t.arrMinIn[id]
		if math.IsInf(am, 1) {
			am = 0
		}
		arrMin = am + d0
		slw = s0
	}
	changed := arr != res.arrOut[id] || arrMin != t.arrMinOut[id] || slw != res.slewOut[id]
	res.delay[id] = d0
	res.arrOut[id] = arr
	t.arrMinOut[id] = arrMin
	res.slewOut[id] = slw
	return changed
}

// endpointsOf rewrites one driver's endpoint entries in place — the
// setup and hold checks at each register or macro data pin on its
// signal output net, in net order, then each output port. It reads only
// the driver's own arrivals.
//
//hotpath:kernel
func (t *Timer) endpointsOf(id int32) {
	g, res, cfg := t.g, t.res, &t.cfg
	row := g.ends.Row(id)
	if len(row) == 0 {
		return
	}
	dst := res.endSlack[g.endStart[id]:][:len(row)]
	arr, arrMin := res.arrOut[id], t.arrMinOut[id]
	for k, a := range row {
		wd := t.wd[a]
		if sk := g.arcTo[a]; sk >= 0 {
			inst := t.d.Instances[sk]
			endReq := cfg.Period + t.lat(inst) - inst.Master.Setup
			slack := endReq - (arr + wd)
			hold := arrMin + wd - t.lat(inst) - inst.Master.Hold
			dst[k] = endpoint{inst: inst, from: id, slack: slack, hold: hold}
			continue
		}
		// An output port: the net's ports own its last arcs.
		net := g.out[id]
		ports := t.d.Nets[net].SinkPorts
		p := ports[int(a-g.arcOff[net+1])+len(ports)]
		dst[k] = endpoint{port: p, from: id, slack: cfg.Period - (arr + wd), hold: math.Inf(1)}
	}
}

// requiredOf returns the required time at the output of a driver of a
// signal net: the tightest of its register, macro and port captures and
// of its combinational sinks' required times less their stage delays,
// taken in net order.
//
//hotpath:kernel
func (t *Timer) requiredOf(id int32) float64 {
	g, res, cfg := t.g, t.res, &t.cfg
	net := g.out[id]
	req := math.Inf(1)
	for a := g.arcOff[net]; a < g.arcOff[net+1]; a++ {
		wd := t.wd[a]
		var cand float64
		switch sk := g.arcTo[a]; {
		case sk == arcClkPin:
			continue
		case sk == arcPort:
			cand = cfg.Period - wd
		case g.src[sk]:
			inst := t.d.Instances[sk]
			cand = cfg.Period + t.lat(inst) - inst.Master.Setup - wd
		default:
			cand = res.reqOut[sk] - res.delay[sk] - wd
		}
		if cand < req {
			req = cand
		}
	}
	return req
}

// summarize rebuilds the WNS/TNS/hold rollups from the endpoint table,
// iterating in slice order so accumulation matches a fresh analysis.
func (t *Timer) summarize() {
	res := t.res
	res.WNS = math.Inf(1)
	res.HoldWNS = math.Inf(1)
	res.TNS, res.HoldTNS = 0, 0
	res.Endpoints, res.FailingEndpoints, res.FailingHoldEndpoints = 0, 0, 0
	for _, e := range res.endSlack {
		res.Endpoints++
		if e.slack < res.WNS {
			res.WNS = e.slack
		}
		if e.slack < 0 {
			res.FailingEndpoints++
			res.TNS += e.slack
		}
		if e.hold < res.HoldWNS {
			res.HoldWNS = e.hold
		}
		if e.hold < 0 {
			res.FailingHoldEndpoints++
			res.HoldTNS += e.hold
		}
	}
	if res.Endpoints == 0 {
		res.WNS = 0 // unconstrained design
	}
	if math.IsInf(res.HoldWNS, 1) {
		res.HoldWNS = 0 // no registered endpoints
	}
}
