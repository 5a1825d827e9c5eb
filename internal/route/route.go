package route

import (
	"sync"

	"repro/internal/dense"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Router estimates wiring over a given BEOL stack and MIV technology.
// Extract/NetWirelength/CountMIVs are pure with respect to the Router
// and safe to call from many goroutines at once.
type Router struct {
	Stack tech.Stack
	MIV   tech.MIV
	// MIVClusterRadius groups minority-tier pins of a cross-tier net: one
	// MIV serves all pins within this radius (µm).
	MIVClusterRadius float64
	// WLMPerSinkFF, when positive, switches Extract to a pre-placement
	// wire-load model: every sink contributes this much wire capacitance
	// (and the matching resistance) regardless of geometry. Synthesis-
	// stage sizing uses it before any placement exists.
	WLMPerSinkFF float64
}

// New returns a Router over the standard signal stack and default MIV.
func New() *Router {
	return &Router{
		Stack:            tech.NewSignalStack(),
		MIV:              tech.DefaultMIV(),
		MIVClusterRadius: 10,
	}
}

// NetWirelength returns the Steiner wirelength of one net in µm.
//
//hotpath:kernel
func (r *Router) NetWirelength(n *netlist.Net) float64 {
	sc := getScratch()
	defer putScratch(sc)
	sc.pinbuf = n.AppendPinLocs(sc.pinbuf[:0])
	sc.dedup(sc.pinbuf)
	if len(sc.pts) <= 1 {
		return 0
	}
	return sc.build(false)
}

// CountMIVs estimates the monolithic inter-tier vias a 3-D net needs: the
// signal originates on the driver's tier and descends (or ascends) once
// near each spatial cluster of pins on the opposite tier — nearby pins
// share a via, far-apart clusters each get their own. Returns 0 for
// single-tier nets.
func (r *Router) CountMIVs(n *netlist.Net) int {
	sc := getScratch()
	defer putScratch(sc)
	return r.countMIVs(sc, n)
}

//hotpath:kernel
func (r *Router) countMIVs(sc *rsmtScratch, n *netlist.Net) int {
	pins := &sc.clusterPts
	pins[0] = pins[0][:0]
	pins[1] = pins[1][:0]
	driverTier := tech.TierBottom
	if n.Driver.Valid() {
		driverTier = n.Driver.Inst.Tier
		pins[driverTier] = append(pins[driverTier], n.Driver.Loc())
	}
	for _, s := range n.Sinks {
		pins[s.Inst.Tier] = append(pins[s.Inst.Tier], s.Loc())
	}
	if len(pins[0]) == 0 || len(pins[1]) == 0 {
		return 0
	}
	return clusterCount(sc, pins[driverTier.Other()], r.MIVClusterRadius)
}

// clusterCount greedily groups points within radius of a cluster seed.
func clusterCount(sc *rsmtScratch, pts []geom.Point, radius float64) int {
	sc.taken = dense.Grow(sc.taken, len(pts))
	taken := sc.taken
	for i := range taken {
		taken[i] = false
	}
	clusters := 0
	for i := range pts {
		if taken[i] {
			continue
		}
		clusters++
		taken[i] = true
		for j := i + 1; j < len(pts); j++ {
			if !taken[j] && pts[i].ManhattanDist(pts[j]) <= radius {
				taken[j] = true
			}
		}
	}
	return clusters
}

// NetRC is the lumped extraction of one net for timing and power.
//
// NetRC shells are pool-recycled: a value is owned by the caller of
// Extract until recycled (RecycleRC) or published through one of the
// lifecycle functions below, and must not be stored past that point —
// the poolescape pass enforces this statically.
//
//pool:scoped
type NetRC struct {
	// WireLen is the Steiner length in µm.
	WireLen float64
	// WireCap is the total wire capacitance in fF (including MIV caps).
	WireCap float64
	// SinkR[i] is the wire resistance from driver to sink i in kΩ
	// (tree-path resistance, for the Elmore term).
	SinkR []float64
	// SinkCapShare[i] is the wire capacitance charged through SinkR[i]
	// (half the path's distributed cap, Elmore style).
	SinkCapShare []float64
	// MIVs is the inter-tier via count on the net.
	MIVs int
}

// rcPool recycles NetRC shells and their sink arrays between
// extractions. sync.Pool keeps the lists per-P, so the parallel
// extraction fan-outs each draw from their own worker-local free list.
var rcPool = sync.Pool{New: func() any { return new(NetRC) }}

// newNetRC returns a recycled (or fresh) NetRC with zeroed totals and
// empty sink slices holding at least the given capacity.
//
//pool:boundary the allocator half of the NetRC lifecycle
func newNetRC(sinks int) *NetRC {
	rc := rcPool.Get().(*NetRC)
	rc.WireLen, rc.WireCap, rc.MIVs = 0, 0, 0
	if cap(rc.SinkR) < sinks {
		rc.SinkR = make([]float64, 0, sinks)
		rc.SinkCapShare = make([]float64, 0, sinks)
	}
	rc.SinkR = rc.SinkR[:0]
	rc.SinkCapShare = rc.SinkCapShare[:0]
	return rc
}

// RecycleRC returns rc to the extraction free list. The caller must hold
// the only live reference: recycled storage is reused by later
// extractions, so recycling a NetRC that a cache entry, analysis result,
// or another goroutine can still read corrupts their view. The safe
// call sites are owners of provably private results, such as a Cache
// replacing its own stored extraction.
//
//pool:boundary the recycler half of the NetRC lifecycle
func RecycleRC(rc *NetRC) {
	if rc != nil {
		rcPool.Put(rc)
	}
}

// Extract computes the lumped RC view of a net over the router's stack.
// Wire R/C use the stack averages (signal routing spreads across layers);
// each MIV adds its R in series (approximated onto every sink path of a
// crossing net) and its C to the total. With WLMPerSinkFF set the
// geometric estimate is replaced by the wire-load model.
//
// Results come from a free list refilled by RecycleRC; a result is
// owned by the caller until recycled or published (e.g. stored in a
// Cache, which then hands the same pointer to every caller).
//
//pool:boundary hands pool-fresh results to their owning caller
func (r *Router) Extract(n *netlist.Net) *NetRC {
	if r.WLMPerSinkFF > 0 {
		return r.extractWLM(n)
	}
	return r.extractGeometric(n)
}

// extractWLM is the pre-placement wire-load model: per-sink fixed wire
// cap, matching resistance via the stack's average RC, no MIVs.
//
//pool:boundary Extract's WLM leg; result ownership passes to the caller
func (r *Router) extractWLM(n *netlist.Net) *NetRC {
	avgR, avgC := r.Stack.AvgR(), r.Stack.AvgC()
	perLen := r.WLMPerSinkFF / avgC // µm of wire per sink
	sinks := len(n.Sinks) + len(n.SinkPorts)
	rc := newNetRC(sinks)
	rc.WireLen = perLen * float64(sinks)
	rc.WireCap = r.WLMPerSinkFF * float64(sinks)
	for i := 0; i < sinks; i++ {
		rc.SinkR = append(rc.SinkR, perLen*avgR)
		rc.SinkCapShare = append(rc.SinkCapShare, r.WLMPerSinkFF/2)
	}
	return rc
}

//hotpath:kernel
//pool:boundary Extract's geometric leg; result ownership passes to the caller
func (r *Router) extractGeometric(n *netlist.Net) *NetRC {
	sc := getScratch()
	defer putScratch(sc)
	sc.pinbuf = n.AppendPinLocs(sc.pinbuf[:0])
	sc.dedup(sc.pinbuf)
	var length float64
	if len(sc.pts) > 1 {
		length = sc.build(false)
	}
	avgR, avgC := r.Stack.AvgR(), r.Stack.AvgC()
	rc := newNetRC(len(n.Sinks) + len(n.SinkPorts))
	rc.WireLen = length
	rc.WireCap = length * avgC
	rc.MIVs = r.countMIVs(sc, n)
	rc.WireCap += float64(rc.MIVs) * r.MIV.C

	// Per-sink path resistance from the tree, in pin order. The builder
	// dedups coincident pins, so map by location.
	clear(sc.pathLoc)
	if len(sc.pts) > 1 {
		for i, l := range sc.pts[1:] {
			sc.pathLoc[l] = sc.pathLen[i+1]
		}
	}
	crossing := rc.MIVs > 0
	appendSink := func(loc geom.Point, otherTier bool) {
		pl := sc.pathLoc[loc]
		res := pl * avgR
		if crossing && otherTier {
			res += r.MIV.R
		}
		rc.SinkR = append(rc.SinkR, res)
		rc.SinkCapShare = append(rc.SinkCapShare, pl*avgC/2)
	}
	driverTier := tech.TierBottom
	if n.Driver.Valid() {
		driverTier = n.Driver.Inst.Tier
	}
	for _, s := range n.Sinks {
		appendSink(s.Loc(), s.Inst.Tier != driverTier)
	}
	for _, p := range n.SinkPorts {
		appendSink(p.Loc, false)
	}
	return rc
}
