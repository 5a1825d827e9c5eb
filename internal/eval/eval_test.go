package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/tech"
)

// One tiny suite shared by all tests in this package (building it runs
// ten full flows).
var (
	suiteOnce sync.Once
	suiteVal  *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		opt := DefaultSuiteOptions(0.05)
		opt.FmaxIterations = 3
		suiteVal, suiteErr = RunSuite(context.Background(), opt)
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

func TestRunSuiteComplete(t *testing.T) {
	s := testSuite(t)
	if len(s.Results) != 4 {
		t.Fatalf("suite covered %d designs", len(s.Results))
	}
	for _, dn := range designs.All {
		if s.Fmax[dn] <= 0 {
			t.Errorf("%s: fmax = %v", dn, s.Fmax[dn])
		}
		if len(s.Results[dn]) != 5 {
			t.Errorf("%s: %d configs", dn, len(s.Results[dn]))
		}
	}
	order := s.DesignsInOrder()
	if len(order) != 4 || order[0] != designs.Netcard {
		t.Errorf("order = %v", order)
	}
}

func TestRunSuiteErrors(t *testing.T) {
	if _, err := RunSuite(context.Background(), SuiteOptions{Scale: 0}); err == nil {
		t.Error("zero scale should fail")
	}
}

// TestRunSuiteRefusesBadNames: a repeated or unknown design name is
// refused with one error naming it, before any flow reports an event
// and before the journal file exists.
func TestRunSuiteRefusesBadNames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		designs []designs.Name
		want    string
	}{
		{"repeated", []designs.Name{designs.CPU, designs.AES, designs.CPU}, `repeated design "cpu"`},
		{"unknown", []designs.Name{designs.AES, "riscv"}, `unknown design "riscv"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &countingSink{}
			opt := DefaultSuiteOptions(0.02)
			opt.Designs = tc.designs
			opt.Events = sink
			opt.Checkpoint = filepath.Join(t.TempDir(), "suite.ckpt")
			_, err := RunSuite(context.Background(), opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunSuite error %v, want one naming %s", err, tc.want)
			}
			if n := sink.stageStarts.Load() + sink.fmax.Load() + sink.configs.Load(); n != 0 {
				t.Errorf("%d events before the refusal", n)
			}
			if _, err := os.Stat(opt.Checkpoint); !os.IsNotExist(err) {
				t.Errorf("journal written before the refusal (stat: %v)", err)
			}
		})
	}
}

// layoutFlows lists the flows of s whose records keep a layout.
func layoutFlows(s *Suite) []string {
	var out []string
	for _, dn := range s.DesignsInOrder() {
		for _, cfg := range core.AllConfigs {
			if r := s.Results[dn][cfg]; r != nil && r.Layout != nil {
				out = append(out, fmt.Sprintf("%s/%s", dn, cfg))
			}
		}
	}
	return out
}

// TestOnlyFigureFlowsKeepLayouts: of a full suite's twenty flows, only
// the three CPU flows the figures draw keep a layout; every record has
// its deep dive.
func TestOnlyFigureFlowsKeepLayouts(t *testing.T) {
	s := testSuite(t)
	want := []string{"cpu/2D-9T", "cpu/2D-12T", "cpu/Hetero-M3D"}
	if got := layoutFlows(s); !slices.Equal(got, want) {
		t.Errorf("flows with a layout: %v, want %v", got, want)
	}
	for _, dn := range s.DesignsInOrder() {
		for cfg, r := range s.Results[dn] {
			if r.Dive == nil {
				t.Errorf("%s/%s: record has no deep dive", dn, cfg)
			}
		}
	}
}

func TestTableI(t *testing.T) {
	s := testSuite(t)
	out := s.TableI().String()
	for _, want := range []string{"Frequency", "Die Cost", "Hetero"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIandIII(t *testing.T) {
	t2, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []string{t2.String(), t3.String()} {
		for _, want := range []string{"Rise Slew", "Lkg. Pow.", "Case-I", "Δ%"} {
			if !strings.Contains(tb, want) {
				t.Errorf("FO-4 table missing %q:\n%s", want, tb)
			}
		}
	}
}

func TestTableIV(t *testing.T) {
	out := TableIV().String()
	for _, want := range []string{"0.96 × C'", "1.97 × C'", "Defect density", "Die cost"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q:\n%s", want, out)
		}
	}
}

func TestTableV(t *testing.T) {
	tb, err := testSuite(t).TableV()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"Pin-3D", "Hetero-Pin-3D", "WNS", "Total Power"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table V missing %q:\n%s", want, out)
		}
	}
	if _, err := (&Suite{Opt: DefaultSuiteOptions(0.02)}).TableV(); err == nil {
		t.Error("Table V of a suite without the CPU should fail")
	}
}

// TestTableVSeed: Table V's Hetero-Pin-3D column is the suite's CPU
// Hetero-M3D record, and its Pin-3D column is the plain flow run at the
// suite's scale, seed and CPU f_max.
func TestTableVSeed(t *testing.T) {
	const scale, seed = 0.02, 2
	opt := DefaultSuiteOptions(scale)
	opt.Seed = seed
	opt.Designs = []designs.Name{designs.CPU}
	opt.Configs = []core.ConfigName{core.ConfigHetero}
	s, err := RunSuite(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.TableV()
	if err != nil {
		t.Fatal(err)
	}
	src, err := designs.Generate(designs.CPU, cell.NewLibrary(tech.Variant12T()),
		designs.Params{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fmax := s.Fmax[designs.CPU]
	plain := core.DefaultOptions(fmax)
	plain.Seed = seed
	plain.EnableTimingPartition, plain.Enable3DCTS, plain.EnableRepartition = false, false, false
	r, err := core.Run(context.Background(), src, core.ConfigHetero, plain)
	if err != nil {
		t.Fatal(err)
	}
	p, h := r.PPAC, s.Results[designs.CPU][core.ConfigHetero].PPAC
	want := map[string][2]string{
		"Frequency":   {fmt.Sprintf("%.3f", fmax), fmt.Sprintf("%.3f", fmax)},
		"WL":          {fmt.Sprintf("%.3f", p.WLm), fmt.Sprintf("%.3f", h.WLm)},
		"WNS":         {fmt.Sprintf("%+.3f", p.WNS), fmt.Sprintf("%+.3f", h.WNS)},
		"Total Power": {fmt.Sprintf("%.1f", p.PowerMW), fmt.Sprintf("%.1f", h.PowerMW)},
	}
	out := tb.String()
	for metric, v := range want {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); strings.HasPrefix(line, metric+" ") && len(f) >= 2 {
				found = true
				if got := [2]string{f[len(f)-2], f[len(f)-1]}; got != v {
					t.Errorf("Table V %s: Pin-3D, Hetero-Pin-3D = %v, want %v (seed %d)", metric, got, v, seed)
				}
			}
		}
		if !found {
			t.Errorf("Table V has no %s row:\n%s", metric, out)
		}
	}
}

func TestTableVIandVII(t *testing.T) {
	s := testSuite(t)
	t6 := s.TableVI().String()
	for _, want := range []string{"netcard", "PPC", "# MIVs", "Effective Delay"} {
		if !strings.Contains(t6, want) {
			t.Errorf("Table VI missing %q", want)
		}
	}
	t7 := s.TableVII().String()
	for _, want := range []string{"Si Area", "2D-9T/netcard", "M3D-12T/cpu", "PPC"} {
		if !strings.Contains(t7, want) {
			t.Errorf("Table VII missing %q", want)
		}
	}
}

func TestTableVIII(t *testing.T) {
	s := testSuite(t)
	tb, err := s.TableVIII()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"Memory Interconnects", "Clock Network", "Critical Path", "Avg. Top Delay"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table VIII missing %q", want)
		}
	}
}

func TestFigs(t *testing.T) {
	s := testSuite(t)
	dir := t.TempDir()
	f3, err := s.Fig3(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f3, "tier-1") {
		t.Errorf("Fig. 3 missing hetero tier view:\n%s", f3)
	}
	f4, err := s.Fig4(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f4, "critical path") {
		t.Errorf("Fig. 4 missing path summary:\n%s", f4)
	}
}

// The suite-level shape checks of DESIGN.md §4. At this toy scale (tiny
// dies, yield ≈ κ, generator minimum-size clamps) the per-design deltas
// are noisy, so the test pins the claims the paper itself calls robust:
// the heterogeneous methodology "works best with complex IPs" — the CPU
// — while AES is its stated worst case. The full four-design sweep at
// paper-comparable scale lives in the bench harness (EXPERIMENTS.md).
func TestSuiteHeadlineShape(t *testing.T) {
	s := testSuite(t)
	cpu := s.Results[designs.CPU]
	het := cpu[core.ConfigHetero].PPAC

	// CPU: hetero has the best PDP of all five configurations.
	for cfg, r := range cpu {
		if cfg == core.ConfigHetero {
			continue
		}
		if het.PDPpJ >= r.PPAC.PDPpJ {
			t.Errorf("CPU hetero PDP %v should beat %s %v", het.PDPpJ, cfg, r.PPAC.PDPpJ)
		}
	}
	// CPU: hetero PPC beats both 12-track configurations.
	for _, cfg := range []core.ConfigName{core.Config2D12T, core.ConfigM3D12T} {
		if het.PPC <= cpu[cfg].PPAC.PPC {
			t.Errorf("CPU hetero PPC %v should beat %s %v", het.PPC, cfg, cpu[cfg].PPAC.PPC)
		}
	}
	// CPU: hetero closes timing within the paper's criterion while the
	// 9-track configs fail badly.
	if !het.TimingMet() {
		t.Errorf("CPU hetero WNS %v not met", het.WNS)
	}
	if cpu[core.Config2D9T].PPAC.TimingMet() {
		t.Error("CPU 2D-9T should fail the 12-track f_max")
	}

	// Across designs: hetero Si area never exceeds the 12-track configs'
	// (the 12.5 % shrink), and the 3-D cost/cm² premium holds everywhere.
	for _, dn := range s.DesignsInOrder() {
		h := s.Results[dn][core.ConfigHetero].PPAC
		for _, cfg := range []core.ConfigName{core.Config2D12T, core.ConfigM3D12T} {
			if h.SiAreaMM2 >= s.Results[dn][cfg].PPAC.SiAreaMM2 {
				t.Errorf("%s: hetero Si %v should undercut %s %v", dn, h.SiAreaMM2, cfg, s.Results[dn][cfg].PPAC.SiAreaMM2)
			}
		}
		if h.CostPerCm2 <= s.Results[dn][core.Config2D12T].PPAC.CostPerCm2 {
			t.Errorf("%s: hetero cost/cm² %v should exceed 2-D %v", dn, h.CostPerCm2, s.Results[dn][core.Config2D12T].PPAC.CostPerCm2)
		}
	}
}
