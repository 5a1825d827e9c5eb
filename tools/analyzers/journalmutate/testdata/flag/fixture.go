// Fixture for the journalmutate pass: every `want` line must be flagged,
// everything else must not.
package fixture

import (
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// hasLoc shadows the field names on an unrelated type: must not flag.
type hasLoc struct {
	Loc  geom.Point
	Tier tech.Tier
}

func bad(inst *netlist.Instance, insts []*netlist.Instance) {
	inst.Loc = geom.Pt(1, 2)     // want "direct write to netlist.Instance.Loc"
	inst.Tier = tech.TierTop     // want "direct write to netlist.Instance.Tier"
	inst.Loc.X = 3.5             // want "direct write to netlist.Instance.Loc"
	insts[0].Loc = geom.Pt(0, 0) // want "direct write to netlist.Instance.Loc"
	(*inst).Tier = 0             // want "direct write to netlist.Instance.Tier"
}

func good(d *netlist.Design, inst *netlist.Instance, h *hasLoc) {
	inst.SetLoc(geom.Pt(1, 2))
	inst.SetTier(tech.TierTop)
	h.Loc = geom.Pt(5, 6) // not an Instance
	h.Tier = tech.TierTop // not an Instance
	inst.Fixed = true     // not a journaled field
	x := inst.Loc.X       // reads are fine
	_ = x
	for _, p := range d.Ports {
		p.Loc = geom.Pt(0, 0) // Port.Loc is not journaled
	}
}
