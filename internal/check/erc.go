package check

import (
	"repro/internal/cell"
	"repro/internal/netlist"
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
	d := c.in.Design
	c.checked(len(d.Nets))
	for _, n := range d.Nets {
		if n.Degree() > 0 && !n.HasDriver() {
			c.fail(n.Name, "net has %d sink(s) but no driver", len(n.Sinks)+len(n.SinkPorts))
		}
	}
}

func ercMultiDrivenNet(c *checker) {
	d := c.in.Design
	c.checked(len(d.Nets))
	for _, n := range d.Nets {
		if n.Driver.Valid() && n.DriverPort != nil {
			c.fail(n.Name, "net driven by both pin %s/%s and port %s",
				n.Driver.Inst.Name, n.Driver.Spec().Name, n.DriverPort.Name)
		}
	}
}

func ercFloatingInput(c *checker) {
	d := c.in.Design
	for _, inst := range d.Instances {
		if inst.Master == nil {
			continue // ERC-006's finding
		}
		for i, p := range inst.Master.Pins {
			if p.Dir != cell.DirIn {
				continue
			}
			c.checked(1)
			if d.NetAt(inst, i) == nil {
				c.fail(inst.Name, "input pin %s is unconnected", p.Name)
			}
		}
	}
}

func ercUnconnectedClock(c *checker) {
	if !c.in.ClockBuilt {
		return // pre-CTS states legitimately float clock pins
	}
	d := c.in.Design
	for _, inst := range d.Instances {
		if inst.Master == nil {
			continue
		}
		for i, p := range inst.Master.Pins {
			if p.Dir != cell.DirClk {
				continue
			}
			c.checked(1)
			if d.NetAt(inst, i) == nil {
				c.fail(inst.Name, "clock pin %s unconnected after CTS", p.Name)
			}
		}
	}
}

func ercMaster(c *checker) {
	d := c.in.Design
	c.checked(len(d.Instances))
	var tracks []string
	haveLibs := false
	for _, lib := range c.in.Libs {
		if lib != nil {
			haveLibs = true
			tracks = append(tracks, lib.Variant.Track.String())
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
		if haveLibs && !m.Function.IsMacro() {
			known := false
			for _, lib := range c.in.Libs {
				if lib != nil && lib.Variant.Track == m.Track {
					known = true
					break
				}
			}
			if !known {
				c.fail(inst.Name, "master %s track %v outside flow libraries (%v)",
					m.Name, m.Track, tracks)
			}
		}
	}
}

func ercBinding(c *checker) {
	d := c.in.Design
	c.checked(len(d.Nets) + len(d.Instances) + len(d.Ports))
	for _, n := range d.Nets {
		if n.Driver.Valid() && d.NetAt(n.Driver.Inst, n.Driver.Pin) != n {
			c.fail(n.Name, "driver %s/%s does not point back at the net",
				n.Driver.Inst.Name, n.Driver.Spec().Name)
		}
		for _, s := range n.Sinks {
			if !s.Valid() {
				c.fail(n.Name, "invalid sink reference")
				continue
			}
			if s.Spec().Dir == cell.DirOut {
				c.fail(n.Name, "output pin %s/%s listed as sink", s.Inst.Name, s.Spec().Name)
			}
			if d.NetAt(s.Inst, s.Pin) != n {
				c.fail(n.Name, "sink %s/%s does not point back at the net",
					s.Inst.Name, s.Spec().Name)
			}
		}
	}
	for _, inst := range d.Instances {
		if inst.Master == nil {
			continue
		}
		for i, spec := range inst.Master.Pins {
			n := d.NetAt(inst, i)
			if n == nil {
				continue
			}
			ref := netlist.PinRef{Inst: inst, Pin: i}
			if spec.Dir == cell.DirOut {
				if n.Driver != ref {
					c.fail(inst.Name, "output pin %s bound to net %s but not its driver", spec.Name, n.Name)
				}
				continue
			}
			found := false
			for _, s := range n.Sinks {
				if s == ref {
					found = true
					break
				}
			}
			if !found {
				c.fail(inst.Name, "pin %s bound to net %s but missing from its sinks", spec.Name, n.Name)
			}
		}
	}
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
