package check

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// The binding walker (netlist.Bindings) behind Validate and ERC-002,
// ERC-003 and ERC-007: one table of corrupted netlists, each asserted on
// both consumers, and a scaling test that catches a per-pin search of
// the sink list.

func TestBindingWalker(t *testing.T) {
	pin := func(d *netlist.Design, inst, name string) netlist.PinRef {
		i := d.Instance(inst)
		return netlist.PinRef{Inst: i, Pin: pinIndex(t, i, name)}
	}
	unbind := func(d *netlist.Design, r netlist.PinRef) {
		if err := d.Disconnect(r); err != nil {
			t.Fatal(err)
		}
	}
	// chain(t, 2): in → ff0 → q0 → inva → na → invb → nb → ff1 → q1 → out,
	// with ff0 and ff1 clocked by clk.
	for _, c := range []struct {
		name     string
		corrupt  func(d *netlist.Design)
		validate string   // Validate's error, "" for none
		erc      []string // ERC-002/003/007 findings, in report order
	}{
		{name: "clean", corrupt: func(d *netlist.Design) {}},
		{
			name: "driver mirror, net side",
			corrupt: func(d *netlist.Design) {
				y := pin(d, "inva", "Y")
				unbind(d, y)
				d.Net("na").Driver = y
			},
			validate: "netlist: na: driver inva/Y does not point back at the net",
			erc:      []string{"ERC-007 na: driver inva/Y does not point back at the net"},
		},
		{
			name:     "driver mirror, instance side",
			corrupt:  func(d *netlist.Design) { d.Net("na").Driver = netlist.PinRef{} },
			validate: "netlist: na: net has 1 sink(s) but no driver",
			erc: []string{
				"ERC-002 na: net has 1 sink(s) but no driver",
				"ERC-007 inva: output pin Y bound to net na but not its driver",
			},
		},
		{
			name: "sink mirror, net side",
			corrupt: func(d *netlist.Design) {
				a := pin(d, "invb", "A")
				unbind(d, a)
				if err := d.Connect(a.Inst, "A", d.Net("q0")); err != nil {
					t.Fatal(err)
				}
				na := d.Net("na")
				na.Sinks = append(na.Sinks, a)
			},
			validate: "netlist: na: sink invb/A does not point back at the net",
			erc:      []string{"ERC-007 na: sink invb/A does not point back at the net"},
		},
		{
			name:     "sink mirror, instance side",
			corrupt:  func(d *netlist.Design) { d.Net("na").Sinks = nil },
			validate: "netlist: invb: pin A bound to net na but missing from its sinks",
			erc:      []string{"ERC-007 invb: pin A bound to net na but missing from its sinks"},
		},
		{
			name: "output pin listed as sink",
			corrupt: func(d *netlist.Design) {
				na := d.Net("na")
				na.Sinks = append(na.Sinks, pin(d, "inva", "Y"))
			},
			validate: "netlist: na: output pin inva/Y listed as sink",
			erc:      []string{"ERC-007 na: output pin inva/Y listed as sink"},
		},
		{
			name: "duplicate sink balances a missing pin",
			corrupt: func(d *netlist.Design) {
				ck := pin(d, "ff0", "CK")
				d.Net("clk").Sinks = []netlist.PinRef{ck, ck}
			},
			validate: "netlist: ff1: pin CK bound to net clk but missing from its sinks",
			erc:      []string{"ERC-007 ff1: pin CK bound to net clk but missing from its sinks"},
		},
		{
			name: "duplicate sink balances a missing pin, IDs not positions",
			corrupt: func(d *netlist.Design) {
				ck := pin(d, "ff0", "CK")
				d.Net("clk").Sinks = []netlist.PinRef{ck, ck}
				ff0, ff1 := d.Instance("ff0"), d.Instance("ff1")
				ff0.ID, ff1.ID = ff1.ID, ff0.ID
			},
			validate: "netlist: ff1: pin CK bound to net clk but missing from its sinks",
			erc:      []string{"ERC-007 ff1: pin CK bound to net clk but missing from its sinks"},
		},
		{
			name:     "multiple drivers",
			corrupt:  func(d *netlist.Design) { d.Net("q0").DriverPort = &netlist.Port{Name: "rogue"} },
			validate: "netlist: q0: net driven by both pin ff0/Q and port rogue",
			erc:      []string{"ERC-003 q0: net driven by both pin ff0/Q and port rogue"},
		},
		{
			name:     "nil master",
			corrupt:  func(d *netlist.Design) { d.Instance("inva").Master = nil },
			validate: "netlist: q0: invalid sink reference",
			erc: []string{
				"ERC-002 na: net has 1 sink(s) but no driver",
				"ERC-007 q0: invalid sink reference",
			},
		},
	} {
		d, in := chain(t, 2)
		c.corrupt(d)
		got := ""
		if err := d.Validate(); err != nil {
			got = err.Error()
		}
		if got != c.validate {
			t.Errorf("%s: Validate = %q, want %q", c.name, got, c.validate)
		}
		var findings []string
		for _, v := range Run(in, ClassERC).Violations {
			switch v.Rule {
			case "ERC-002", "ERC-003", "ERC-007":
				findings = append(findings, fmt.Sprintf("%s %s: %s", v.Rule, v.Obj, v.Msg))
			}
		}
		if fmt.Sprint(findings) != fmt.Sprint(c.erc) {
			t.Errorf("%s: findings\n got %q\nwant %q", c.name, findings, c.erc)
		}
	}
}

// fanoutDesign builds 4n inverters whose inputs hang on four port-driven
// nets: n on each net when spread, all 4n on the first net otherwise.
// Both shapes have the same instances, pins and nets; only the fanout of
// the nets differs.
func fanoutDesign(t *testing.T, n int, spread bool) (*netlist.Design, []*netlist.Net) {
	t.Helper()
	d := netlist.New("fanout")
	var nets []*netlist.Net
	for i := 0; i < 4; i++ {
		net, _ := d.AddNet(fmt.Sprintf("big%d", i))
		if _, err := d.AddPort(net.Name, cell.DirIn, net); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	inv := lib12.Smallest(cell.FuncInv)
	for i := 0; i < 4*n; i++ {
		x, err := d.AddInstance(fmt.Sprintf("x%d", i), inv)
		if err != nil {
			t.Fatal(err)
		}
		net := nets[0]
		if spread {
			net = nets[i/n]
		}
		if err := d.Connect(x, "A", net); err != nil {
			t.Fatal(err)
		}
	}
	return d, nets
}

// fastest returns the quickest of seven timed runs, each after a
// collection, so a GC cycle or a descheduling does not land in the
// measurement.
func fastest(run func() time.Duration) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 7; i++ {
		runtime.GC()
		best = min(best, run())
	}
	return best
}

// Validate, the ERC rules and DisconnectSinks are linear in the fanout
// of a net: 2¹⁶ pins on one net of fanout 4n = 2¹⁶ must cost about what
// the same pins on four nets of fanout n cost. A search of the sink
// list per pin costs 4× as much on the single net. The bound compares
// two timings of same-sized designs on one host, not a wall-clock
// threshold, and the equal sizes keep cache effects out of the ratio:
// 2× is the geometric middle between linear (1×) and quadratic (4×).
func TestBindingWalkLinear(t *testing.T) {
	const n = 1 << 14
	spread, spreadNets := fanoutDesign(t, n, true)
	one, oneNets := fanoutDesign(t, n, false)
	timed := func(op func()) time.Duration {
		start := time.Now()
		op()
		return time.Since(start)
	}
	for _, c := range []struct {
		name string
		cost func(d *netlist.Design, nets []*netlist.Net) time.Duration
	}{
		{"Validate", func(d *netlist.Design, _ []*netlist.Net) time.Duration {
			return timed(func() {
				if err := d.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}},
		{"ERC", func(d *netlist.Design, _ []*netlist.Net) time.Duration {
			return timed(func() {
				if rep := Run(Input{Design: d}, ClassERC); rep.Count(Error) != 0 {
					t.Fatal(rep.Err(Error))
				}
			})
		}},
		{"DisconnectSinks", func(d *netlist.Design, nets []*netlist.Net) time.Duration {
			var sinks [][]netlist.PinRef
			for _, net := range nets {
				sinks = append(sinks, append([]netlist.PinRef{}, net.Sinks...))
			}
			dt := timed(func() {
				for _, net := range nets {
					if err := d.DisconnectSinks(net); err != nil {
						t.Fatal(err)
					}
				}
			})
			for i, net := range nets {
				for _, s := range sinks[i] {
					if err := d.Connect(s.Inst, "A", net); err != nil {
						t.Fatal(err)
					}
				}
			}
			return dt
		}},
	} {
		ts := fastest(func() time.Duration { return c.cost(spread, spreadNets) })
		to := fastest(func() time.Duration { return c.cost(one, oneNets) })
		ratio := float64(to) / float64(max(ts, time.Microsecond))
		t.Logf("%s: %v at fanout %d, %v at fanout %d (×%.2f)", c.name, ts, n, to, 4*n, ratio)
		if ratio > 2 {
			t.Errorf("%s: 4× the fanout took %.2f× the time (%v → %v); want linear", c.name, ratio, ts, to)
		}
	}
}
