package sta

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cell"
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

// faninEdge is one timing arc into an instance: driver, the net carrying
// it, and the sink's index on that net (which is also its index into the
// extraction's SinkR/SinkCapShare arrays).
type faninEdge struct {
	drv int32
	net *netlist.Net
	idx int32
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
// A Timer belongs to one flow and is not safe for concurrent use; only
// reads of its Result may run concurrently with each other (the settle
// is serialized). It only reads the design, so several Timers may share
// a design that no one mutates.
type Timer struct {
	d   *netlist.Design
	cfg Config
	res *Result
	lat func(*netlist.Instance) float64

	g       *graph
	topoRev uint64
	// ex is the per-net RC store the timer reads wire parasitics from:
	// Config.Router itself when it is a *route.Cache, a store wrapping it
	// otherwise. Clock nets carry no RC for timing (their delay comes
	// from the CTS latency model), so every read tests IsClock first.
	ex      *route.Cache
	pos     []int32 // instance ID → topological position
	minZero []bool  // instance has a port-driven or floating input
	// fanin holds every instance's timing arcs (rows by instance ID) in
	// driver position order, as one flat CSR payload.
	fanin dense.CSR[faninEdge]
	// endStart/endCount locate each driver's endpoint entries inside
	// res.endSlack so incremental updates can rewrite them in place.
	endStart, endCount []int32
	// flev/blev group topological positions into dependency levels of
	// the forward and backward sweeps: nodes within a level are mutually
	// independent, so the full pass runs each level as one parallel
	// fan-out over the level's flat row. Rebuilt with the graph (purely
	// structural), keyed on topoRev like fanin.
	flev, blev dense.CSR[int32]
	lvl        []int32 // per-instance level, buildLevels scratch
	// endScratch holds each driver's endpoint entries from the parallel
	// forward sweep until the sequential assembly appends them to
	// res.endSlack in the reference order; it is empty for every
	// instance without a signal output net. Indexed by instance ID.
	endScratch [][]endpoint

	// Forward-pass input-pin state replayEffective rebuilds. Kept
	// outside Result: only combinational instances' entries carry meaning.
	arrIn, arrMinIn, slewIn, arrMinOut []float64

	// Per-Update work-set buffers, reused across calls.
	seedMarked []bool
	seeds      []int32
	dirty      []bool
	incScratch []endpoint

	// pend marks, by topological position, the drivers whose required
	// time may be stale: every node an incremental update re-evaluated
	// and each of its fanin drivers, accumulated over all updates since
	// required times were last exact. settle drains it; res.owed says
	// whether it holds anything. settleMu serializes concurrent readers.
	pend     []bool
	settleMu sync.Mutex

	// instRev holds the journal revisions (by instance ID) the retained
	// state reflects; Update diffs the design against them. Net
	// revisions live in the store's slots.
	instRev []uint64

	fresh bool // no update has run yet
	stats TimerStats
}

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
// extraction work, and Audit, Invalidate and Poison act on what the
// timer will read next.
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
	done := false
	if !full {
		seeds := t.resolveSeeds()
		// Past half the design, frontier bookkeeping costs more than it
		// saves.
		if len(seeds)*2 <= len(t.d.Instances) {
			done = t.incremental(seeds)
		}
	}
	if !done {
		if err := t.fullUpdate(); err != nil {
			return nil, err
		}
	}
	t.fresh = false
	t.summarize()
	return t.res, nil
}

func timingSource(inst *netlist.Instance) bool {
	f := inst.Master.Function
	return f.IsSequential() || f.IsMacro()
}

// resolveSeeds turns the instances whose journal revision moved since
// the last update into the set of instances whose forward state must be
// recomputed, and refreshes the stored extraction of every signal net
// of theirs whose revision moved. The seed set is deliberately a
// superset: the changed instance plus every driver and sink of each of
// its nets — that covers load changes at drivers, wire-delay changes at
// sibling sinks, and the derate dependencies that reach one net away in
// both directions. The baselines advance as the changes are consumed.
func (t *Timer) resolveSeeds() []int32 {
	d := t.d
	t.seedMarked = dense.Zero(t.seedMarked, len(d.Instances))
	marked := t.seedMarked
	seeds := t.seeds[:0]
	add := func(id int) {
		if !marked[id] {
			marked[id] = true
			seeds = append(seeds, int32(id))
		}
	}
	revs := d.InstRevs()
	base := t.instRev[:len(revs)]
	for id, rev := range revs {
		if rev == base[id] {
			continue
		}
		base[id] = rev
		add(id)
		inst := d.Instances[id]
		for pi := range inst.Master.Pins {
			n := d.NetAt(inst, pi)
			if n == nil {
				continue
			}
			if n.Driver.Valid() {
				add(n.Driver.Inst.ID)
			}
			for _, s := range n.Sinks {
				add(s.Inst.ID)
			}
			if !n.IsClock {
				t.ex.Refresh(n)
			}
		}
	}
	t.seeds = seeds
	return seeds
}

// syncRevs records every instance's current journal revision as the
// baseline the next Update diffs against.
func (t *Timer) syncRevs() {
	inst := t.d.InstRevs()
	t.instRev = dense.Grow(t.instRev, len(inst))
	copy(t.instRev, inst)
}

// fullUpdate recomputes everything: graph (when the topology revision
// moved), revision baselines, extraction, forward arrivals, and the
// backward required pass. This is the reference computation — Analyze is
// exactly one of these.
//
// With Config.Workers > 1 the expensive phases fan out without changing
// a single bit of the result: extraction is per-net independent; the
// forward sweep runs level-by-level over flevels, where a node's
// replayEffective reads only its drivers (all in lower levels, final)
// and it, computeNode and endpointsOf write only the node's own slots,
// with each driver's endpoint entries parked in endScratch; the backward
// sweep runs level-by-level over blevels; then a sequential assembly
// appends the endpoint entries to res.endSlack in exactly the reference
// (reverse-position) order. Nothing is owed to a settle afterwards.
func (t *Timer) fullUpdate() error {
	d := t.d
	if t.g == nil || t.topoRev != d.TopoRev() {
		if t.g == nil {
			t.g = &graph{}
		}
		if err := t.g.rebuild(d); err != nil {
			return err
		}
		t.topoRev = d.TopoRev()
		t.pos = dense.Grow(t.pos, len(d.Instances))
		for p, inst := range t.g.order {
			t.pos[inst.ID] = int32(p)
		}
		t.buildFanin()
		t.buildLevels()
	}
	t.syncRevs()
	workers := t.cfg.Workers
	// Bring every signal net's stored extraction up to date. The store
	// is sized serially; inside the fan-out each net touches only its
	// own slot, so the fill stays deterministic.
	nNets := len(d.Nets)
	t.ex.Grow()
	par.ParallelFor(workers, nNets, func(i int) {
		if n := d.Nets[i]; !n.IsClock {
			t.ex.Extract(n)
		}
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
		t.minZero = dense.Grow(t.minZero, n)
		t.endStart = dense.Grow(t.endStart, n)
		t.endCount = dense.Grow(t.endCount, n)
		t.endScratch = dense.Grow(t.endScratch, n)
	}
	res.endSlack = res.endSlack[:0]
	t.pend = dense.Zero(t.pend, n)
	res.owed.Store(nil)
	// Per-instance resets, one index-addressed fan-out. Instances with a
	// port-driven or floating signal input can switch as early as t=0 on
	// the min path. ParBatches/ParTasks leave this fan-out out: they keep
	// counting the extraction and the sweeps, as the stage metrics that
	// saved databases carry always have.
	par.ParallelFor(workers, n, func(i int) {
		t.minZero[i] = earlyInput(d, d.Instances[i])
		t.arrIn[i] = 0
		t.arrMinIn[i] = math.Inf(1)
		if t.minZero[i] {
			t.arrMinIn[i] = 0
		}
		t.slewIn[i] = t.cfg.InputSlew
		res.pred[i] = -1
		res.inWire[i] = 0
		res.reqOut[i] = math.Inf(1)
		t.endScratch[i] = t.endScratch[i][:0]
	})

	// ---------- Forward pass: arrivals, slews, endpoint checks ----------
	// Levels run in order; nodes within a level are independent (their
	// fanin arcs all come from lower levels) and write only their own
	// index-addressed state. A driver's endpoint checks read only its
	// own final arrivals, so they park in its scratch right here.
	for lv := 0; lv < t.flev.Rows(); lv++ {
		level := t.flev.Row(int32(lv))
		par.ParallelFor(workers, len(level), func(k int) {
			inst := t.g.order[level[k]]
			if !timingSource(inst) {
				t.replayEffective(inst)
			}
			out := d.OutputNet(inst)
			t.computeNode(inst, out)
			if out != nil && !out.IsClock {
				t.endScratch[inst.ID] = t.endpointsOf(inst, out, t.endScratch[inst.ID])
			}
		})
		t.noteFanout(len(level))
	}

	// ---------- Backward required pass ----------
	// Backward levels hold exactly the drivers of a signal net: a
	// driver's required time depends only on its combinational sinks
	// that themselves run the backward computation — all in lower
	// backward levels, final when the driver computes.
	for lv := 0; lv < t.blev.Rows(); lv++ {
		level := t.blev.Row(int32(lv))
		par.ParallelFor(workers, len(level), func(k int) {
			inst := t.g.order[level[k]]
			if req := t.requiredOf(inst, d.OutputNet(inst)); req < res.reqOut[inst.ID] {
				res.reqOut[inst.ID] = req
			}
		})
		t.noteFanout(len(level))
	}
	// Sequential assembly in the reference order (reverse topological
	// position), so endSlack bytes match the serial sweep exactly.
	// Instances the backward sweep skipped contribute empty scratch.
	for i := len(t.g.order) - 1; i >= 0; i-- {
		id := t.g.order[i].ID
		scratch := t.endScratch[id]
		t.endStart[id] = int32(len(res.endSlack))
		t.endCount[id] = int32(len(scratch))
		res.endSlack = append(res.endSlack, scratch...)
	}
	t.stats.FullUpdates++
	t.stats.NodesReevaluated += int64(len(t.g.order))
	return nil
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

// noteFanout records one scheduled parallel fan-out of n items (counted
// the same at any worker count — see TimerStats).
func (t *Timer) noteFanout(n int) {
	t.stats.ParBatches++
	t.stats.ParTasks += int64(n)
}

// buildLevels derives the dependency levels of the sweeps from the
// fanin arcs — purely structural, rebuilt with the graph.
//
// Forward: flevel(v) = 1 + max flevel(d) over v's fanin drivers;
// sources and cells without instance-driven inputs sit at level 0.
// Backward: blevel(v) = 1 + max blevel(s) over v's combinational sinks
// that run the backward computation (have a non-clock output net); a
// sink that does not keeps its +Inf required time. Levels hold
// topological positions in ascending (forward) / descending (backward)
// position order.
func (t *Timer) buildLevels() {
	d := t.d
	order := t.g.order
	t.lvl = dense.Zero(t.lvl, len(d.Instances))
	level := t.lvl

	maxF := int32(0)
	for _, inst := range order {
		lv := int32(0)
		if !timingSource(inst) {
			for _, e := range t.fanin.Row(int32(inst.ID)) {
				if l := level[e.drv] + 1; l > lv {
					lv = l
				}
			}
		}
		level[inst.ID] = lv
		if lv > maxF {
			maxF = lv
		}
	}
	t.flev.Reset(int(maxF) + 1)
	for _, inst := range order {
		t.flev.Count(level[inst.ID])
	}
	t.flev.Seal()
	for p, inst := range order {
		t.flev.Append(level[inst.ID], int32(p))
	}

	// participates mirrors the runtime guard: only a signal output net
	// carries an RC for timing.
	participates := func(inst *netlist.Instance) *netlist.Net {
		out := d.OutputNet(inst)
		if out == nil || out.IsClock {
			return nil
		}
		return out
	}
	for i := range level {
		level[i] = 0
	}
	maxB := int32(-1)
	for i := len(order) - 1; i >= 0; i-- {
		inst := order[i]
		out := participates(inst)
		if out == nil {
			continue
		}
		lv := int32(0)
		for _, s := range out.Sinks {
			sk := s.Inst
			if s.Spec().Dir == cell.DirClk || timingSource(sk) || participates(sk) == nil {
				continue
			}
			if l := level[sk.ID] + 1; l > lv {
				lv = l
			}
		}
		level[inst.ID] = lv
		if lv > maxB {
			maxB = lv
		}
	}
	t.blev.Reset(int(maxB) + 1)
	for _, inst := range order {
		if participates(inst) != nil {
			t.blev.Count(level[inst.ID])
		}
	}
	t.blev.Seal()
	for i := len(order) - 1; i >= 0; i-- {
		inst := order[i]
		if participates(inst) == nil {
			continue
		}
		t.blev.Append(level[inst.ID], int32(i))
	}
}

// incremental re-propagates from the seed frontier and rewrites the
// endpoint entries of every driver it re-evaluates; required times are
// left owed to the next settle. Returns false when it detects drift it
// cannot handle in place (the caller then runs a full update).
func (t *Timer) incremental(seeds []int32) bool {
	d := t.d
	n := len(d.Instances)
	res := t.res
	t.dirty = dense.Zero(t.dirty, n) // indexed by topological position
	dirty, pend := t.dirty, t.pend
	for _, id := range seeds {
		dirty[t.pos[id]] = true
	}

	// Forward sweep in topological order: a node's drivers all sit at
	// earlier positions, final when it replays. Expansion follows data
	// arcs to combinational sinks, which sit at later positions.
	// Sequential sinks hold no live input state; their capture checks
	// are redone by their drivers, which the seeds always include.
	for p := 0; p < n; p++ {
		if !dirty[p] {
			continue
		}
		inst := t.g.order[p]
		if !timingSource(inst) {
			t.replayEffective(inst)
		}
		out := d.OutputNet(inst)
		changed := t.computeNode(inst, out)
		t.stats.NodesReevaluated++
		// The node's required time is owed, and so are its fanin
		// drivers', which read its stage delay.
		pend[p] = true
		for _, e := range t.fanin.Row(int32(inst.ID)) {
			pend[t.pos[e.drv]] = true
		}
		if out == nil || out.IsClock {
			continue
		}
		t.incScratch = t.endpointsOf(inst, out, t.incScratch[:0])
		if int32(len(t.incScratch)) != t.endCount[inst.ID] {
			// Endpoint membership drifted without a topology revision
			// move; hand the update to the full pass.
			return false
		}
		copy(res.endSlack[t.endStart[inst.ID]:], t.incScratch)
		if !changed {
			continue
		}
		for _, s := range out.Sinks {
			if s.Spec().Dir == cell.DirClk {
				continue
			}
			if !timingSource(s.Inst) {
				dirty[t.pos[s.Inst.ID]] = true
			}
		}
	}
	if len(seeds) > 0 {
		res.owed.Store(t)
	}
	t.stats.IncrementalUpdates++
	return true
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
	d := t.d
	for p := len(t.pend) - 1; p >= 0; p-- {
		if !t.pend[p] {
			continue
		}
		t.pend[p] = false
		inst := t.g.order[p]
		out := d.OutputNet(inst)
		if out == nil || out.IsClock {
			continue
		}
		t.stats.RequiredNodes++
		if req := t.requiredOf(inst, out); req != res.reqOut[inst.ID] {
			res.reqOut[inst.ID] = req
			if !timingSource(inst) {
				for _, e := range t.fanin.Row(int32(inst.ID)) {
					t.pend[t.pos[e.drv]] = true
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

// buildFanin records every data arc in (driver topological position, sink
// index) order, so replayEffective's strict-comparison tie-breaks depend
// only on the structure. The arcs live in one flat CSR payload keyed by
// sink instance ID; the two-pass build preserves that order within each
// row and reallocates nothing once the storage is warm.
func (t *Timer) buildFanin() {
	conn := t.d.Conn()
	t.fanin.Reset(len(t.d.Instances))
	for _, inst := range t.g.order {
		out := conn.OutputNet(inst)
		if out == nil || out.IsClock {
			continue
		}
		for _, s := range out.Sinks {
			if s.Spec().Dir == cell.DirClk {
				continue
			}
			t.fanin.Count(int32(s.Inst.ID))
		}
	}
	t.fanin.Seal()
	for _, inst := range t.g.order {
		out := conn.OutputNet(inst)
		if out == nil || out.IsClock {
			continue
		}
		for i, s := range out.Sinks {
			if s.Spec().Dir == cell.DirClk {
				continue
			}
			t.fanin.Append(int32(s.Inst.ID),
				faninEdge{drv: int32(inst.ID), net: out, idx: int32(i)})
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
func (t *Timer) replayEffective(inst *netlist.Instance) {
	id := inst.ID
	ai, si := 0.0, t.cfg.InputSlew
	ami := math.Inf(1)
	if t.minZero[id] {
		ami = 0
	}
	pred, inw := int32(-1), 0.0
	for _, e := range t.fanin.Row(int32(id)) {
		r, cs := t.ex.Sink(e.net.ID, int(e.idx))
		wd := tech.RCps(r, cs+e.net.Sinks[e.idx].Spec().Cap)
		if a := t.res.arrOut[e.drv] + wd; a > ai {
			ai = a
			pred, inw = e.drv, wd
		}
		if am := t.arrMinOut[e.drv] + wd; am < ami {
			ami = am
		}
		if sw := t.res.slewOut[e.drv] + wd; sw > si {
			si = sw
		}
	}
	t.arrIn[id], t.arrMinIn[id], t.slewIn[id] = ai, ami, si
	t.res.pred[id], t.res.inWire[id] = pred, inw
}

// computeNode recomputes one instance's stage delay, output arrival,
// min-path arrival, and output slew from its output net out (nil when
// unconnected), reporting whether any propagated quantity moved
// (bitwise).
//
//hotpath:kernel
func (t *Timer) computeNode(inst *netlist.Instance, out *netlist.Net) bool {
	res, cfg := t.res, &t.cfg
	id := inst.ID

	var load float64
	if out != nil {
		load = out.TotalPinCap()
		if !out.IsClock {
			load = t.ex.WireCap(out.ID) + load
		}
	}

	var arr, arrMin, slw, d0 float64
	if timingSource(inst) {
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

// endpointsOf appends one driver's endpoint entries — the setup and
// hold checks at each register or macro data pin on its signal output
// net out, in net order, then each output port — to scratch. It reads
// only the driver's own arrivals.
//
//hotpath:kernel
func (t *Timer) endpointsOf(inst *netlist.Instance, out *netlist.Net, scratch []endpoint) []endpoint {
	res, cfg := t.res, &t.cfg
	for si, s := range out.Sinks {
		sk := s.Inst
		if s.Spec().Dir == cell.DirClk || !timingSource(sk) {
			continue
		}
		r, cs := t.ex.Sink(out.ID, si)
		wd := tech.RCps(r, cs+s.Spec().Cap)
		endReq := cfg.Period + t.lat(sk) - sk.Master.Setup
		slack := endReq - (res.arrOut[inst.ID] + wd)
		hold := t.arrMinOut[inst.ID] + wd - t.lat(sk) - sk.Master.Hold
		scratch = append(scratch, endpoint{inst: sk, from: int32(inst.ID), slack: slack, hold: hold})
	}
	for pi, p := range out.SinkPorts {
		// Extract appends ports after every instance sink.
		r, cs := t.ex.Sink(out.ID, len(out.Sinks)+pi)
		wd := tech.RCps(r, cs+p.Cap)
		slack := cfg.Period - (res.arrOut[inst.ID] + wd)
		scratch = append(scratch, endpoint{port: p, from: int32(inst.ID), slack: slack, hold: math.Inf(1)})
	}
	return scratch
}

// requiredOf returns the required time at a driver's output: the
// tightest of its register, macro and port captures on its signal
// output net out and of its combinational sinks' required times less
// their stage delays.
//
//hotpath:kernel
func (t *Timer) requiredOf(inst *netlist.Instance, out *netlist.Net) float64 {
	res, cfg := t.res, &t.cfg
	req := math.Inf(1)
	for si, s := range out.Sinks {
		if s.Spec().Dir == cell.DirClk {
			continue
		}
		r, cs := t.ex.Sink(out.ID, si)
		wd := tech.RCps(r, cs+s.Spec().Cap)
		sk := s.Inst
		var cand float64
		if timingSource(sk) {
			cand = cfg.Period + t.lat(sk) - sk.Master.Setup - wd
		} else {
			cand = res.reqOut[sk.ID] - res.delay[sk.ID] - wd
		}
		if cand < req {
			req = cand
		}
	}
	for pi, p := range out.SinkPorts {
		r, cs := t.ex.Sink(out.ID, len(out.Sinks)+pi)
		if cand := cfg.Period - tech.RCps(r, cs+p.Cap); cand < req {
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
