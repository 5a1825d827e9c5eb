package designs

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var lib = cell.NewLibrary(tech.Variant12T())

func smallParams() Params { return Params{Scale: 0.02, Seed: 7} }

func genAll(t *testing.T, p Params) map[Name]*netlist.Design {
	t.Helper()
	out := make(map[Name]*netlist.Design)
	for _, n := range All {
		d, err := Generate(n, lib, p)
		if err != nil {
			t.Fatalf("Generate(%s): %v", n, err)
		}
		out[n] = d
	}
	return out
}

func TestGenerateAllValid(t *testing.T) {
	for name, d := range genAll(t, smallParams()) {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		s := d.ComputeStats()
		if s.Cells < 100 {
			t.Errorf("%s: only %d cells", name, s.Cells)
		}
		if s.Sequential == 0 {
			t.Errorf("%s: no registers", name)
		}
		if d.Net("clk") == nil || !d.Net("clk").IsClock {
			t.Errorf("%s: missing clock net", name)
		}
		if len(d.Ports) < 3 {
			t.Errorf("%s: only %d ports", name, len(d.Ports))
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("bogus", lib, smallParams()); err == nil {
		t.Error("unknown design should fail")
	}
	if _, err := Generate(AES, lib, Params{Scale: 0}); err == nil {
		t.Error("zero scale should fail")
	}
	if _, err := Generate(AES, lib, Params{Scale: -1}); err == nil {
		t.Error("negative scale should fail")
	}
}

func TestDeterminism(t *testing.T) {
	p := smallParams()
	a1, err := Generate(LDPC, lib, p)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Generate(LDPC, lib, p)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := a1.ComputeStats(), a2.ComputeStats()
	if s1 != s2 {
		t.Errorf("stats differ across runs: %+v vs %+v", s1, s2)
	}
	// Spot-check identical connectivity on a random net.
	n1, n2 := a1.Nets[len(a1.Nets)/2], a2.Nets[len(a2.Nets)/2]
	if n1.Name != n2.Name || len(n1.Sinks) != len(n2.Sinks) {
		t.Errorf("net mismatch: %s/%d vs %s/%d", n1.Name, len(n1.Sinks), n2.Name, len(n2.Sinks))
	}
}

func TestScaleGrowsDesign(t *testing.T) {
	small, err := Generate(AES, lib, Params{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(AES, lib, Params{Scale: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.ComputeStats().Cells <= small.ComputeStats().Cells {
		t.Error("larger scale should yield more cells")
	}
}

func TestCPUHasMacros(t *testing.T) {
	d, err := Generate(CPU, lib, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	s := d.ComputeStats()
	if s.Macros != 8 {
		t.Errorf("CPU macros = %d, want 8", s.Macros)
	}
	// Macro area ≈ 0.9× cell area (cache ≈ 40 % of footprint).
	r := s.MacroArea / s.CellArea
	if r < 0.6 || r > 1.3 {
		t.Errorf("macro/cell area ratio = %v, want ≈0.9", r)
	}
	// Macros must be fixed for the placer.
	for _, inst := range d.Instances {
		if inst.Master.Function.IsMacro() && !inst.Fixed {
			t.Errorf("macro %s not fixed", inst.Name)
		}
	}
	// Memory interconnect nets exist: each macro has A driven and Q
	// driving something.
	for _, inst := range d.Instances {
		if !inst.Master.Function.IsMacro() {
			continue
		}
		if d.NetOf(inst, "A") == nil || d.NetOf(inst, "Q") == nil {
			t.Errorf("macro %s not fully connected", inst.Name)
		}
		if len(d.NetOf(inst, "Q").Sinks) == 0 {
			t.Errorf("macro %s output floats", inst.Name)
		}
	}
}

func TestOtherDesignsHaveNoMacros(t *testing.T) {
	p := smallParams()
	for _, n := range []Name{AES, LDPC, Netcard} {
		d, err := Generate(n, lib, p)
		if err != nil {
			t.Fatal(err)
		}
		if s := d.ComputeStats(); s.Macros != 0 {
			t.Errorf("%s has %d macros, want 0", n, s.Macros)
		}
	}
}

// LDPC must be markedly more "global" than netcard: measure the average
// number of distinct driver cones feeding each design's nets by comparing
// average net fanout of combinational nets. The real discriminator —
// wirelength — needs placement, so here we check the structural proxy the
// generators are built around: LDPC check trees draw inputs from the whole
// register population, netcard from neighbours. We verify via register
// reuse: in LDPC a register feeds sinks spread across many different check
// nodes; in netcard a bit register feeds at most a few local gates.
func TestLDPCConnectivityIsGlobal(t *testing.T) {
	p := Params{Scale: 0.05, Seed: 3}
	ld, err := Generate(LDPC, lib, p)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := Generate(Netcard, lib, p)
	if err != nil {
		t.Fatal(err)
	}
	avgFan := func(d *netlist.Design, prefix string) float64 {
		tot, cnt := 0, 0
		for _, inst := range d.Instances {
			if inst.Master.Function != cell.FuncDFF {
				continue
			}
			if out := d.OutputNet(inst); out != nil {
				tot += len(out.Sinks)
				cnt++
			}
		}
		if cnt == 0 {
			t.Fatalf("no DFFs in %s", prefix)
		}
		return float64(tot) / float64(cnt)
	}
	lf, nf := avgFan(ld, "ldpc"), avgFan(nc, "netcard")
	if lf <= nf {
		t.Errorf("LDPC register fanout %v should exceed netcard %v", lf, nf)
	}
}

func TestAESSymmetry(t *testing.T) {
	d, err := Generate(AES, lib, Params{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every bit slice is identical: the design must use a handful of
	// gate types in equal proportion per slice.
	masters := make(map[string]bool)
	for _, inst := range d.Instances {
		masters[inst.Master.Name] = true
	}
	if len(masters) > 12 {
		t.Errorf("AES uses %d distinct masters, expected a small symmetric set", len(masters))
	}
}

func TestFullScaleCellCountsApproximatePaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in -short mode")
	}
	// Only netcard is checked at full scale here to keep the test fast;
	// its 250 k cells is the paper's headline size claim.
	d, err := Generate(Netcard, lib, Params{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := d.ComputeStats().Cells
	if c < 180_000 || c > 320_000 {
		t.Errorf("netcard full-scale cells = %d, want ≈250k", c)
	}
}
