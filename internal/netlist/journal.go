package netlist

import "fmt"

// Change journaling: every structural or physical mutation of a Design
// bumps fine-grained revision counters, so downstream consumers (RC
// extraction caches, the incremental timing engine, the connectivity
// snapshot) learn exactly what was dirtied by comparing the counters
// against the values they saw last, instead of re-deriving the whole
// design.
//
// Three revision domains cover the invalidation needs of the flow:
//
//   - NetRev(n): bumped whenever the net's extracted RC could change —
//     its pin membership changes, or a connected instance moves (Loc) or
//     switches dies (Tier).
//   - InstRev(inst): bumped on any change to the instance itself (master
//     swap, move, tier change).
//   - TopoRev(): bumped on any change to the design's connectivity
//     (instances/nets/ports added, pins connected or disconnected). A
//     retained timing graph must re-levelize when this moves.
//
// Outside this package, every mutation goes through the journaled APIs:
// ReplaceMaster, InsertBuffer, Connect, Disconnect, DisconnectSinks,
// Instance.SetLoc and Instance.SetTier. A direct write to Instance.Loc or
// .Tier bumps nothing, so every consumer keyed on the counters would keep
// a stale view.

// journal is the per-design revision state. maxTopo is the high-water
// mark of topoRev — they only differ after a fault-injected rewind
// (CorruptTopoRev), and Reconcile uses it to move the revision strictly
// past every value previously handed out.
type journal struct {
	topoRev uint64
	maxTopo uint64
	netRev  []uint64 // by net ID
	instRev []uint64 // by instance ID
}

// TopoRev returns the design's connectivity revision: it moves whenever
// the instance/net/port sets or any pin binding change.
func (d *Design) TopoRev() uint64 { return d.jn.topoRev }

// InstRevs returns every instance's revision, indexed by instance ID: the
// bulk form of InstRev for consumers that diff the whole design against a
// saved copy. A coherent journal covers every instance (AddInstance grows
// the array in lockstep); the design-integrity checker's ENG rules assert
// exactly that. The slice aliases the journal: read it only, and only
// until the next mutation.
func (d *Design) InstRevs() []uint64 { return d.jn.instRev }

// NetRevs returns every net's revision, indexed by net ID, with the same
// coverage and aliasing rules as InstRevs.
func (d *Design) NetRevs() []uint64 { return d.jn.netRev }

// NetRev returns the net's extraction revision: it moves whenever the
// net's pin membership or any connected instance's Loc/Tier changes, so a
// cached RC extraction is valid exactly while NetRev is unchanged.
func (d *Design) NetRev(n *Net) uint64 {
	if n.ID >= len(d.jn.netRev) {
		return 0
	}
	return d.jn.netRev[n.ID]
}

// InstRev returns the instance's revision: it moves on master swaps,
// moves, and tier changes.
func (d *Design) InstRev(inst *Instance) uint64 {
	if inst.ID >= len(d.jn.instRev) {
		return 0
	}
	return d.jn.instRev[inst.ID]
}

// bumpTopo records a connectivity edit.
func (d *Design) bumpTopo() {
	d.jn.topoRev++
	if d.jn.topoRev > d.jn.maxTopo {
		d.jn.maxTopo = d.jn.topoRev
	}
}

// Reconcile repairs a journal whose revision counters can no longer be
// trusted (detected by the design-integrity checker's ENG rules, e.g.
// after fault injection rewinds the topology revision): it moves the
// topology revision strictly past every value previously handed out,
// and bumps every per-net and per-instance revision — forcing every
// retained engine view (timing graph, RC cache) to rebuild from ground
// truth. It never rewinds.
func (d *Design) Reconcile() {
	for i := range d.jn.netRev {
		d.jn.netRev[i]++
	}
	for i := range d.jn.instRev {
		d.jn.instRev[i]++
	}
	d.jn.topoRev = d.jn.maxTopo
	d.bumpTopo()
}

// CorruptTopoRev rewinds the topology revision by n — deliberately
// violating the journal's monotonicity invariant. It exists only for
// fault injection (the harness's journal corruption target): retained
// engines keep trusting their stale views until an ENG-class check
// catches the rewind. Returns the new revision.
func (d *Design) CorruptTopoRev(n uint64) uint64 {
	if n > d.jn.topoRev {
		n = d.jn.topoRev
	}
	d.jn.topoRev -= n
	return d.jn.topoRev
}

// RestoreJournal overwrites the journal's revision counters with a
// previously exported JournalSnap — the last step of ImportState, run
// on a freshly replayed design. Restoring the saved revisions (rather
// than keeping the replay's own counters) is what keeps revision-keyed
// state saved alongside the netlist — RC cache entries, the checker's
// ENG-003 high-water marks — coherent after a load. The high-water mark
// is clamped up to the topology revision so monotonicity holds even for
// a snapshot taken mid fault-injection.
func (d *Design) RestoreJournal(s JournalSnap) error {
	if len(s.InstRev) != len(d.Instances) {
		return fmt.Errorf("netlist: journal covers %d instances, design has %d", len(s.InstRev), len(d.Instances))
	}
	if len(s.NetRev) != len(d.Nets) {
		return fmt.Errorf("netlist: journal covers %d nets, design has %d", len(s.NetRev), len(d.Nets))
	}
	d.jn.topoRev = s.TopoRev
	d.jn.maxTopo = s.MaxTopo
	if d.jn.maxTopo < s.TopoRev {
		d.jn.maxTopo = s.TopoRev
	}
	d.jn.instRev = append(d.jn.instRev[:0], s.InstRev...)
	d.jn.netRev = append(d.jn.netRev[:0], s.NetRev...)
	return nil
}

func (d *Design) bumpNet(n *Net) {
	if n.ID < len(d.jn.netRev) {
		d.jn.netRev[n.ID]++
	}
}

func (d *Design) bumpInst(inst *Instance) {
	if inst.ID < len(d.jn.instRev) {
		d.jn.instRev[inst.ID]++
	}
}

// bumpNetsOf bumps every net connected to the instance — the invalidation
// footprint of a move or tier change.
func (d *Design) bumpNetsOf(inst *Instance) {
	for _, n := range inst.nets {
		if n != nil {
			d.bumpNet(n)
		}
	}
}
