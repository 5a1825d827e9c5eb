package check

import (
	"repro/internal/cell"
	"repro/internal/sta"
)

// ENG rules: coherence of the engines layered on the netlist. The
// incremental timer is bit-exact only while the change journal covers
// every object and the retained timing graph levelizes the netlist in
// topological order; these rules assert both, plus revision monotonicity
// across stage boundaries (Session).

func engJournal(c *checker) {
	d := c.in.Design
	c.checked(len(d.Instances) + len(d.Nets))
	insts, nets := len(d.InstRevs()), len(d.NetRevs())
	if insts != len(d.Instances) {
		c.fail("design", "journal covers %d of %d instances", insts, len(d.Instances))
	}
	if nets != len(d.Nets) {
		c.fail("design", "journal covers %d of %d nets", nets, len(d.Nets))
	}
	for i, inst := range d.Instances {
		if inst.ID != i {
			c.fail(inst.Name, "instance ID %d does not match its index %d", inst.ID, i)
			break // one cascade is one finding
		}
	}
	for i, n := range d.Nets {
		if n.ID != i {
			c.fail(n.Name, "net ID %d does not match its index %d", n.ID, i)
			break
		}
	}
}

// engLevelization checks the STA engine's levelization against the
// properties the timer's sweeps rely on: the order exists (the netlist
// has no combinational loop), covers every instance exactly once, and is
// topological — every data arc into a combinational cell, from a
// register, macro or combinational driver, points forward.
func engLevelization(c *checker) {
	d := c.in.Design
	c.checked(len(d.Instances))
	for i, inst := range d.Instances {
		if inst.Master == nil {
			c.fail("design", "levelization skipped: instance %s has no master", inst.Name)
			return
		}
		if inst.ID != i {
			// ENG-001 owns the finding; an ID-incoherent design cannot be
			// levelized (the engine indexes its arrays by instance ID).
			return
		}
	}
	order, err := sta.TopoOrder(d)
	if err != nil {
		c.fail("design", "timing graph not levelizable: %v", err)
		return
	}
	if len(order) != len(d.Instances) {
		c.fail("design", "levelization covers %d of %d instances", len(order), len(d.Instances))
		return
	}
	pos := make([]int, len(d.Instances))
	for i := range pos {
		pos[i] = -1
	}
	for i, inst := range order {
		if inst.ID < 0 || inst.ID >= len(pos) || pos[inst.ID] >= 0 {
			c.fail(inst.Name, "instance appears twice (or with a foreign ID) in the topological order")
			return
		}
		pos[inst.ID] = i
	}
	for _, inst := range order {
		if f := inst.Master.Function; f.IsSequential() || f.IsMacro() {
			continue
		}
		for i, p := range inst.Master.Pins {
			if p.Dir != cell.DirIn {
				continue
			}
			n := d.NetAt(inst, i)
			if n == nil || !n.Driver.Valid() {
				continue
			}
			if drv := n.Driver.Inst; drv.ID < 0 || drv.ID >= len(pos) || pos[drv.ID] >= pos[inst.ID] {
				c.fail(inst.Name, "levelized at position %d, not after its driver %s", pos[inst.ID], drv.Name)
				return
			}
		}
	}
}

// engMonotonic fires only inside a Session (stage-boundary runs): the
// journal's revisions and the design's object counts must never move
// backwards between boundaries — a decrease means some engine holds a
// stale view of the design.
func engMonotonic(c *checker) {
	if c.in.session == nil || !c.in.session.prev.Seen {
		return
	}
	p, d := c.in.session.prev, c.in.Design
	c.checked(3)
	if rev := d.TopoRev(); rev < p.PrevTopo {
		c.fail("design", "topology revision moved backwards: %d after %d (stage %s)", rev, p.PrevTopo, p.PrevStage)
	}
	if n := len(d.Instances); n < p.PrevInsts {
		c.fail("design", "instance count shrank: %d after %d (stage %s)", n, p.PrevInsts, p.PrevStage)
	}
	if n := len(d.Nets); n < p.PrevNets {
		c.fail("design", "net count shrank: %d after %d (stage %s)", n, p.PrevNets, p.PrevStage)
	}
}

// Session runs the checker at successive stage boundaries of one flow,
// carrying the revision state the monotonicity rule compares against.
// The zero value is ready to use; Session is not safe for concurrent use
// (one flow = one session).
type Session struct {
	prev    SessionState
	reports []*Report
}

// Run checks one stage boundary: the selected classes run over the input
// plus the session's monotonicity context, and the session state advances
// to the new boundary.
func (s *Session) Run(stage string, in Input, classes Class) *Report {
	in.session = s
	rep := Run(in, classes)
	rep.Stage = stage
	if d := in.Design; d != nil {
		s.prev = SessionState{Seen: true, PrevStage: stage, PrevTopo: d.TopoRev(),
			PrevInsts: len(d.Instances), PrevNets: len(d.Nets)}
	}
	s.reports = append(s.reports, rep)
	return rep
}

// Reports returns every boundary report of the session, in run order.
func (s *Session) Reports() []*Report { return s.reports }
