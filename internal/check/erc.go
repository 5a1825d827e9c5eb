package check

import (
	"slices"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// ERC rules: the electrical-rule checks a commercial sign-off run
// (Innovus check_design / Tempus check_timing) performs on the netlist
// before trusting any downstream number.

func ercDanglingNet(c *checker) {
	d := c.in.Design
	c.checked(len(d.Nets))
	for _, n := range d.Nets {
		if n.Degree() == 0 {
			c.fail(n.Name, "net has no driver, sinks, or ports")
		}
	}
}

func ercUndrivenNet(c *checker) {
	c.checked(len(c.in.Design.Nets))
	c.failBindings(netlist.NoDriver)
}

func ercMultiDrivenNet(c *checker) {
	c.checked(len(c.in.Design.Nets))
	c.failBindings(netlist.MultiDriver)
}

func ercFloatingInput(c *checker) {
	ercUnbound(c, cell.DirIn, "input pin %s is unconnected")
}

func ercUnconnectedClock(c *checker) {
	if c.in.ClockBuilt { // pre-CTS states legitimately float clock pins
		ercUnbound(c, cell.DirClk, "clock pin %s unconnected after CTS")
	}
}

// ercUnbound fails every instance pin of direction dir that has no net.
func ercUnbound(c *checker, dir cell.Dir, format string) {
	d := c.in.Design
	for _, inst := range d.Instances {
		if inst.Master == nil {
			continue // ERC-006's finding
		}
		for i, p := range inst.Master.Pins {
			if p.Dir != dir {
				continue
			}
			c.checked(1)
			if d.NetAt(inst, i) == nil {
				c.fail(inst.Name, format, p.Name)
			}
		}
	}
}

func ercMaster(c *checker) {
	d := c.in.Design
	c.checked(len(d.Instances))
	var tracks []tech.Track
	for _, lib := range c.in.Libs {
		if lib != nil {
			tracks = append(tracks, lib.Variant.Track)
		}
	}
	for _, inst := range d.Instances {
		m := inst.Master
		if m == nil {
			c.fail(inst.Name, "instance has no cell master")
			continue
		}
		if err := m.Validate(); err != nil {
			c.fail(inst.Name, "invalid master %s: %v", m.Name, err)
			continue
		}
		if len(tracks) > 0 && !m.Function.IsMacro() && !slices.Contains(tracks, m.Track) {
			c.fail(inst.Name, "master %s track %v outside flow libraries (%v)",
				m.Name, m.Track, tracks)
		}
	}
}

func ercBinding(c *checker) {
	d := c.in.Design
	c.checked(len(d.Nets) + len(d.Instances) + len(d.Ports))
	c.failBindings(netlist.Mirror)
	for _, p := range d.Ports {
		if p.Net == nil {
			c.fail(p.Name, "port has no net")
		}
	}
}

// ercCombLoop runs Kahn's algorithm over the combinational graph alone
// (sequential cells and macros break paths; every combinational input
// arc counts): instances left unlevelized sit on or behind a
// combinational loop, which the timer cannot analyze.
func ercCombLoop(c *checker) {
	d := c.in.Design
	c.checked(len(d.Instances))

	isSource := func(inst *netlist.Instance) bool {
		if inst.Master == nil {
			return true // keep the scan total; ERC-006 owns the finding
		}
		f := inst.Master.Function
		return f.IsSequential() || f.IsMacro()
	}

	fanin := make([]int, len(d.Instances))
	for _, inst := range d.Instances {
		if inst.ID >= len(fanin) || isSource(inst) || inst.Master == nil {
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
			if !isSource(n.Driver.Inst) {
				fanin[inst.ID]++
			}
		}
	}

	queue := make([]*netlist.Instance, 0, len(d.Instances))
	for _, inst := range d.Instances {
		if inst.ID < len(fanin) && (isSource(inst) || fanin[inst.ID] == 0) {
			queue = append(queue, inst)
		}
	}
	done := 0
	for len(queue) > 0 {
		inst := queue[0]
		queue = queue[1:]
		done++
		if isSource(inst) {
			// Arcs out of path-breaking cells were never counted as
			// fanin, so a source pop releases nothing. The timing
			// engine's levelizer counts those arcs and releases them
			// here instead; both leave the same cells unlevelized
			// (ENG-002 checks the engine's order).
			continue
		}
		out := d.OutputNet(inst)
		if out == nil {
			continue
		}
		for _, s := range out.Sinks {
			if !s.Valid() || s.Spec().Dir != cell.DirIn || isSource(s.Inst) || s.Inst.ID >= len(fanin) {
				continue
			}
			fanin[s.Inst.ID]--
			if fanin[s.Inst.ID] == 0 {
				queue = append(queue, s.Inst)
			}
		}
	}
	if done == len(d.Instances) {
		return
	}
	var examples []string
	for _, inst := range d.Instances {
		if inst.ID < len(fanin) && fanin[inst.ID] > 0 {
			examples = append(examples, inst.Name)
			if len(examples) == 5 {
				break
			}
		}
	}
	c.fail("design", "combinational loop: %d of %d instances not levelizable (e.g. %v)",
		len(d.Instances)-done, len(d.Instances), examples)
}
