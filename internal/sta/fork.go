package sta

import (
	"slices"

	"repro/internal/netlist"
	"repro/internal/route"
)

// Fork returns a Timer over d that starts where t stands: d must be an
// exact copy of t's design (netlist.Design.Clone — same dense IDs, same
// journal revisions), and the fork's RC store is t's store forked onto
// d (route.Cache.Fork), sharing its extractions read-only. The compiled
// graph — order, positions, levels, arcs, fanin, fanout and endpoint
// rows — is shared too: it is immutable until the topology revision
// moves, and whichever of t and its forks rebuilds first builds a new
// graph of its own. Everything a session writes is copied: arrivals,
// slews, delays, required times and whatever of them is still owed, the
// endpoint table re-pointed into d, the compiled wire delays and loads,
// and the revision baselines. So the fork's next Update is exactly the
// update t would run on the same edits: after a fully updated t it is
// incremental, with nothing dirty until d is edited, and every answer
// is bit-identical to a fresh Analyze of d. The fork's Config is t's
// with Workers replaced; its scratch buffers are its own and its Stats
// start at zero. Config.Latency is carried over as is, so it must key
// on instance IDs (cts.Result.LatencyFunc does), not on pointers.
//
// t must be quiescent while forking: no Update, no settle and no store
// extraction may run on it. Forks may be taken concurrently with each
// other. Edits to d and updates of the fork never touch t.
func (t *Timer) Fork(d *netlist.Design, workers int) *Timer {
	cfg := t.cfg
	cfg.Workers = workers
	ex := t.ex.Fork(d)
	if cfg.Router == route.Extractor(t.ex) {
		cfg.Router = ex
	}
	if t.g != nil {
		t.g.shared.Store(true)
	}
	f := &Timer{
		d:         d,
		cfg:       cfg,
		lat:       t.lat,
		g:         t.g,
		topoRev:   t.topoRev,
		ex:        ex,
		wd:        slices.Clone(t.wd),
		load:      slices.Clone(t.load),
		arrIn:     slices.Clone(t.arrIn),
		arrMinIn:  slices.Clone(t.arrMinIn),
		slewIn:    slices.Clone(t.slewIn),
		arrMinOut: slices.Clone(t.arrMinOut),
		pend:      slices.Clone(t.pend),
		instRev:   slices.Clone(t.instRev),
		fresh:     t.fresh,
	}

	r := t.res
	f.res = &Result{
		WNS: r.WNS, TNS: r.TNS, HoldWNS: r.HoldWNS, HoldTNS: r.HoldTNS,
		Endpoints: r.Endpoints, FailingEndpoints: r.FailingEndpoints,
		FailingHoldEndpoints: r.FailingHoldEndpoints,
		cfg:                  cfg,
		d:                    d,
		arrOut:               slices.Clone(r.arrOut),
		reqOut:               slices.Clone(r.reqOut),
		delay:                slices.Clone(r.delay),
		slewOut:              slices.Clone(r.slewOut),
		inWire:               slices.Clone(r.inWire),
		pred:                 slices.Clone(r.pred),
		endSlack:             make([]endpoint, len(r.endSlack)),
	}
	var portOf map[*netlist.Port]*netlist.Port
	for i, e := range r.endSlack {
		if e.inst != nil {
			e.inst = d.Instances[e.inst.ID]
		}
		if e.port != nil {
			if portOf == nil {
				portOf = make(map[*netlist.Port]*netlist.Port, len(t.d.Ports))
				for k, p := range t.d.Ports {
					portOf[p] = d.Ports[k]
				}
			}
			e.port = portOf[e.port]
		}
		f.res.endSlack[i] = e
	}
	if r.owed.Load() != nil {
		f.res.owed.Store(f)
	}
	return f
}
