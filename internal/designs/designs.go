// Package designs generates the four synthetic benchmark netlists used by
// the paper's evaluation — AES, LDPC, Netcard, and a general-purpose CPU —
// with the topological character the paper attributes to each (Sec. IV):
//
//   - AES: cell-dominant, 128 structurally identical bit slices, so timing
//     paths are symmetric and give poor criticality separation;
//   - LDPC: extremely wire-dominant, random global bipartite connectivity
//     between variable and check nodes, low achievable utilization;
//   - Netcard: large (≈250 k cells at full scale) but simple, mostly local
//     pipeline logic;
//   - CPU: complex IP with diverse block-level timing criticality (a deep
//     multiplier core, shallower periphery) plus memory macros occupying
//     ≈40 % of the footprint.
//
// Generators are deterministic: the same parameters always produce the
// same netlist.
package designs

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Name identifies one of the four benchmark designs.
type Name string

const (
	AES     Name = "aes"
	LDPC    Name = "ldpc"
	Netcard Name = "netcard"
	CPU     Name = "cpu"
)

// All lists the benchmark designs in the paper's table order.
var All = []Name{Netcard, AES, LDPC, CPU}

// Params controls generation.
type Params struct {
	// Scale multiplies the structural size of the design; 1.0 produces
	// paper-comparable cell counts (netcard ≈ 250 k, cpu ≈ 150 k,
	// aes ≈ 20 k, ldpc ≈ 40 k). Tests use small scales for speed.
	Scale float64
	// Seed feeds the deterministic topology randomness; only LDPC's
	// random check/variable-node wiring draws from it, so the other
	// designs are the same at every seed. Same seed → same netlist.
	Seed int64
}

// Generate builds the named design mapped onto lib.
func Generate(name Name, lib *cell.Library, p Params) (*netlist.Design, error) {
	if p.Scale <= 0 {
		return nil, fmt.Errorf("designs: scale must be positive, got %v", p.Scale)
	}
	switch name {
	case AES:
		return genAES(lib, p)
	case LDPC:
		return genLDPC(lib, p)
	case Netcard:
		return genNetcard(lib, p)
	case CPU:
		return genCPU(lib, p)
	default:
		return nil, fmt.Errorf("designs: unknown design %q", name)
	}
}

// scaleInt scales a full-size count, keeping at least min.
func scaleInt(full int, scale float64, min int) int {
	n := int(math.Round(float64(full) * scale))
	if n < min {
		return min
	}
	return n
}

// builder wraps a Design with generation helpers. All helper methods
// panic-free: generation failures are programming errors in the fixed
// generators, surfaced as errors from Generate via the err field.
type builder struct {
	d    *netlist.Design
	lib  *cell.Library
	rng  *rand.Rand
	clk  *netlist.Net
	nets int
	err  error
}

func newBuilder(name string, lib *cell.Library, seed int64) *builder {
	b := &builder{
		d:   netlist.New(name),
		lib: lib,
		rng: rand.New(rand.NewSource(seed)),
	}
	clk, err := b.d.AddNet("clk")
	if err != nil {
		b.err = err
		return b
	}
	clk.IsClock = true
	if _, err := b.d.AddPort("clk", cell.DirClk, clk); err != nil {
		b.err = err
	}
	b.clk = clk
	return b
}

func (b *builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// net allocates a fresh uniquely named net.
func (b *builder) net() *netlist.Net {
	b.nets++
	n, err := b.d.AddNet(fmt.Sprintf("n%d", b.nets))
	if err != nil {
		b.fail(err)
	}
	return n
}

// input adds a primary input port and returns its net.
func (b *builder) input(name string) *netlist.Net {
	n, err := b.d.AddNet("pi_" + name)
	if err != nil {
		b.fail(err)
		return nil
	}
	if _, err := b.d.AddPort(name, cell.DirIn, n); err != nil {
		b.fail(err)
	}
	return n
}

// output terminates net n at a primary output port.
func (b *builder) output(name string, n *netlist.Net) {
	if b.err != nil || n == nil {
		return
	}
	if _, err := b.d.AddPort(name, cell.DirOut, n); err != nil {
		b.fail(err)
	}
}

// gate instantiates the smallest master of fn, connects its inputs to ins
// in pin order, and returns its output net.
func (b *builder) gate(fn cell.Function, name string, ins ...*netlist.Net) *netlist.Net {
	out := b.net()
	b.gateTo(fn, name, out, ins...)
	if b.err != nil {
		return nil
	}
	return out
}

// gateTo is gate with an explicit, pre-allocated output net — the hook
// that lets generators close sequential feedback loops.
func (b *builder) gateTo(fn cell.Function, name string, out *netlist.Net, ins ...*netlist.Net) {
	if b.err != nil {
		return
	}
	m := b.lib.Smallest(fn)
	if m == nil {
		b.fail(fmt.Errorf("designs: library lacks %v", fn))
		return
	}
	inst, err := b.d.AddInstance(name, m)
	if err != nil {
		b.fail(err)
		return
	}
	pi := 0
	for _, p := range m.Pins {
		if p.Dir != cell.DirIn {
			continue
		}
		if pi >= len(ins) {
			b.fail(fmt.Errorf("designs: %s needs %d inputs, got %d", m.Name, m.Function.InputCount(), len(ins)))
			return
		}
		if ins[pi] == nil {
			b.fail(fmt.Errorf("designs: nil input %d to %s", pi, name))
			return
		}
		if err := b.d.Connect(inst, p.Name, ins[pi]); err != nil {
			b.fail(err)
			return
		}
		pi++
	}
	if out == nil {
		b.fail(fmt.Errorf("designs: nil output net for %s", name))
		return
	}
	if err := b.d.Connect(inst, m.OutputPin(), out); err != nil {
		b.fail(err)
	}
}

// dff instantiates a flip-flop clocked by the global clock, fed by dIn,
// and returns its Q net.
func (b *builder) dff(name string, dIn *netlist.Net) *netlist.Net {
	if b.err != nil {
		return nil
	}
	m := b.lib.Smallest(cell.FuncDFF)
	inst, err := b.d.AddInstance(name, m)
	if err != nil {
		b.fail(err)
		return nil
	}
	if dIn == nil {
		b.fail(fmt.Errorf("designs: nil D input to %s", name))
		return nil
	}
	if err := b.d.Connect(inst, "D", dIn); err != nil {
		b.fail(err)
		return nil
	}
	if err := b.d.Connect(inst, "CK", b.clk); err != nil {
		b.fail(err)
		return nil
	}
	q := b.net()
	if b.err != nil {
		return nil
	}
	if err := b.d.Connect(inst, "Q", q); err != nil {
		b.fail(err)
		return nil
	}
	return q
}

// xorTree reduces ins to one net with a balanced XOR tree.
func (b *builder) xorTree(prefix string, ins []*netlist.Net) *netlist.Net {
	level := 0
	for len(ins) > 1 && b.err == nil {
		var next []*netlist.Net
		for i := 0; i+1 < len(ins); i += 2 {
			next = append(next, b.gate(cell.FuncXor2,
				fmt.Sprintf("%s_x%d_%d", prefix, level, i/2), ins[i], ins[i+1]))
		}
		if len(ins)%2 == 1 {
			next = append(next, ins[len(ins)-1])
		}
		ins = next
		level++
	}
	if len(ins) == 0 {
		b.fail(fmt.Errorf("designs: xorTree with no inputs"))
		return nil
	}
	return ins[0]
}

// finish validates and returns the built design.
func (b *builder) finish() (*netlist.Design, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.d.Validate(); err != nil {
		return nil, err
	}
	return b.d, nil
}
