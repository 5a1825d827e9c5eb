package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var lib12 = cell.NewLibrary(tech.Variant12T())

// cachedRun memoizes flow results across tests (flows are deterministic).
var (
	runMu    sync.Mutex
	runCache = map[string]*Result{}
)

func genSrc(t *testing.T, name designs.Name, scale float64) *netlist.Design {
	t.Helper()
	d, err := designs.Generate(name, lib12, designs.Params{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runCfg(t *testing.T, src *netlist.Design, cfg ConfigName, clockGHz float64) *Result {
	t.Helper()
	key := src.Name + "/" + string(cfg)
	runMu.Lock()
	defer runMu.Unlock()
	if r, ok := runCache[key]; ok {
		return r
	}
	r, err := Run(context.Background(), src, cfg, DefaultOptions(clockGHz))
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg, err)
	}
	runCache[key] = r
	return r
}

const testClock = 0.45 // GHz, near the small CPU's 2D-12T f_max

func cpuSrc(t *testing.T) *netlist.Design { return genSrc(t, designs.CPU, 0.04) }

func TestRunAllConfigsValid(t *testing.T) {
	src := cpuSrc(t)
	for _, cfg := range AllConfigs {
		r := runCfg(t, src, cfg, testClock)
		if err := r.Design.Validate(); err != nil {
			t.Errorf("%s: %v", cfg, err)
		}
		p := r.PPAC
		if p.SiAreaMM2 <= 0 || p.PowerMW <= 0 || p.WLm <= 0 || p.DieCostMicroC <= 0 {
			t.Errorf("%s: degenerate PPAC %+v", cfg, p)
		}
		if p.Config != cfg {
			t.Errorf("config label mismatch: %v", p.Config)
		}
		if cfg.Tiers() == 2 && p.MIVs == 0 {
			t.Errorf("%s: no MIVs in a 3-D design", cfg)
		}
		if cfg.Tiers() == 1 && p.MIVs != 0 {
			t.Errorf("%s: MIVs in a 2-D design", cfg)
		}
		if r.Clock == nil || len(r.Clock.Buffers) == 0 {
			t.Errorf("%s: no clock tree", cfg)
		}
	}
}

func TestSourceUntouched(t *testing.T) {
	src := cpuSrc(t)
	before := src.ComputeStats()
	runCfg(t, src, ConfigHetero, testClock)
	if after := src.ComputeStats(); after != before {
		t.Errorf("flow mutated the source netlist: %+v vs %+v", after, before)
	}
}

func TestHeteroTierLibraries(t *testing.T) {
	src := cpuSrc(t)
	r := runCfg(t, src, ConfigHetero, testClock)
	for _, inst := range r.Design.Instances {
		if inst.Master.Function.IsMacro() {
			continue
		}
		want := tech.Track12
		if inst.Tier == tech.TierTop {
			want = tech.Track9
		}
		if inst.Master.Track != want {
			t.Fatalf("%s on %v uses %v library", inst.Name, inst.Tier, inst.Master.Track)
		}
	}
}

func TestHomogeneousConfigsSingleLibrary(t *testing.T) {
	src := cpuSrc(t)
	for cfg, want := range map[ConfigName]tech.Track{
		Config2D9T:   tech.Track9,
		ConfigM3D12T: tech.Track12,
	} {
		r := runCfg(t, src, cfg, testClock)
		for _, inst := range r.Design.Instances {
			if inst.Master.Function.IsMacro() {
				continue
			}
			if inst.Master.Track != want {
				t.Fatalf("%s: instance %s uses %v", cfg, inst.Name, inst.Master.Track)
			}
		}
	}
}

// The headline Table VII shapes at iso-frequency.
func TestPaperShapes(t *testing.T) {
	src := cpuSrc(t)
	res := map[ConfigName]*PPAC{}
	for _, cfg := range AllConfigs {
		res[cfg] = runCfg(t, src, cfg, testClock).PPAC
	}
	het := res[ConfigHetero]

	// Timing: 12-track and hetero meet; 9-track fails hard.
	if !res[Config2D12T].TimingMet() {
		t.Error("2D-12T must meet its own f_max")
	}
	if !het.TimingMet() {
		t.Errorf("hetero must close timing, WNS=%v", het.WNS)
	}
	if res[Config2D9T].TimingMet() || res[ConfigM3D9T].TimingMet() {
		t.Error("9-track configs should fail the 12-track f_max")
	}

	// Si area: hetero smallest (12.5 % shrink).
	for _, cfg := range []ConfigName{Config2D9T, Config2D12T, ConfigM3D9T, ConfigM3D12T} {
		if het.SiAreaMM2 >= res[cfg].SiAreaMM2 {
			t.Errorf("hetero Si %v should be below %s %v", het.SiAreaMM2, cfg, res[cfg].SiAreaMM2)
		}
	}
	// Footprint: 3-D halves the 2-D footprint.
	if het.FootprintMM2 >= res[Config2D12T].FootprintMM2*0.6 {
		t.Errorf("hetero footprint %v not ≈half of 2-D %v", het.FootprintMM2, res[Config2D12T].FootprintMM2)
	}
	// Wirelength: 3-D beats 2-D.
	if het.WLm >= res[Config2D12T].WLm {
		t.Errorf("hetero WL %v should beat 2D-12T %v", het.WLm, res[Config2D12T].WLm)
	}
	// Power: hetero below the 12-track implementations.
	if het.PowerMW >= res[Config2D12T].PowerMW || het.PowerMW >= res[ConfigM3D12T].PowerMW {
		t.Errorf("hetero power %v should undercut 12T configs %v/%v",
			het.PowerMW, res[Config2D12T].PowerMW, res[ConfigM3D12T].PowerMW)
	}
	// Delay: homogeneous 12T 3-D is the fastest implementation.
	if res[ConfigM3D12T].EffDelayNS > het.EffDelayNS*1.05 {
		t.Errorf("M3D-12T delay %v should not trail hetero %v", res[ConfigM3D12T].EffDelayNS, het.EffDelayNS)
	}
	// PDP and PPC: hetero wins both against the 12-track configs.
	for _, cfg := range []ConfigName{Config2D12T, ConfigM3D12T} {
		if het.PDPpJ >= res[cfg].PDPpJ {
			t.Errorf("hetero PDP %v should beat %s %v", het.PDPpJ, cfg, res[cfg].PDPpJ)
		}
	}
	for _, cfg := range []ConfigName{Config2D9T, Config2D12T, ConfigM3D9T, ConfigM3D12T} {
		if het.PPC <= res[cfg].PPC {
			t.Errorf("hetero PPC %v should beat %s %v", het.PPC, cfg, res[cfg].PPC)
		}
	}
	// Cost per cm²: 3-D is more expensive per silicon area than 2-D.
	if het.CostPerCm2 <= res[Config2D12T].CostPerCm2 {
		t.Errorf("hetero cost/cm² %v should exceed 2-D %v", het.CostPerCm2, res[Config2D12T].CostPerCm2)
	}
	// Die cost: hetero cheaper than homogeneous 12T 3-D (smaller dies).
	if het.DieCostMicroC >= res[ConfigM3D12T].DieCostMicroC {
		t.Errorf("hetero die cost %v should beat M3D-12T %v", het.DieCostMicroC, res[ConfigM3D12T].DieCostMicroC)
	}
}

func TestHeteroClockTopHeavy(t *testing.T) {
	src := cpuSrc(t)
	r := runCfg(t, src, ConfigHetero, testClock)
	ct := r.Clock
	tot := ct.CountByTier[0] + ct.CountByTier[1]
	if tot == 0 {
		t.Fatal("no clock buffers")
	}
	if frac := float64(ct.CountByTier[tech.TierTop]) / float64(tot); frac < 0.6 {
		t.Errorf("top-die clock fraction = %v, want > 0.6 (paper: >75%%)", frac)
	}
}

func TestAblationSwitches(t *testing.T) {
	src := genSrc(t, designs.CPU, 0.03)
	full := DefaultOptions(testClock)
	r1, err := Run(context.Background(), src, ConfigHetero, full)
	if err != nil {
		t.Fatal(err)
	}
	plain := full
	plain.EnableTimingPartition = false
	plain.Enable3DCTS = false
	plain.EnableRepartition = false
	r2, err := Run(context.Background(), src, ConfigHetero, plain)
	if err != nil {
		t.Fatal(err)
	}
	// Table V shape: the enhanced flow closes timing far better than the
	// plain Pin-3D driving a heterogeneous design.
	if r1.PPAC.WNS < r2.PPAC.WNS {
		t.Errorf("enhanced flow WNS %v should beat plain %v", r1.PPAC.WNS, r2.PPAC.WNS)
	}
}

func TestRunErrors(t *testing.T) {
	src := genSrc(t, designs.AES, 0.05)
	if _, err := Run(context.Background(), src, ConfigHetero, DefaultOptions(0)); err == nil {
		t.Error("zero clock should fail")
	}
	bad := DefaultOptions(1)
	bad.TargetUtil = 0
	if _, err := Run(context.Background(), src, ConfigHetero, bad); err == nil {
		t.Error("zero util should fail")
	}
	if _, err := Run(context.Background(), src, ConfigName("nope"), DefaultOptions(1)); err == nil {
		t.Error("unknown config should fail")
	}
}

func TestFindFmax(t *testing.T) {
	src := genSrc(t, designs.AES, 0.04)
	opt := DefaultFmaxOptions()
	opt.Iterations = 4
	f, p, err := FindFmax(context.Background(), opt, FlowProbe(src, Config2D12T, DefaultOptions(1)))
	if err != nil {
		t.Fatal(err)
	}
	if f < opt.LoGHz || f > opt.HiGHz {
		t.Fatalf("fmax %v outside bracket", f)
	}
	// The found frequency must actually be achievable, and the returned
	// value is the probe at that frequency: a fresh run there repeats it.
	if p.WNS < -opt.SlackFrac/f {
		t.Errorf("fmax %v not met: WNS %v", f, p.WNS)
	}
	r, err := Run(context.Background(), src, Config2D12T, DefaultOptions(f))
	if err != nil {
		t.Fatal(err)
	}
	if *r.PPAC != *p {
		t.Errorf("returned probe differs from a run at fmax %v:\nprobe %+v\nrun   %+v", f, *p, *r.PPAC)
	}
	if _, _, err := FindFmax(context.Background(), FmaxOptions{LoGHz: 5, HiGHz: 1}, FlowProbe(src, Config2D12T, DefaultOptions(1))); err == nil {
		t.Error("bad bracket should fail")
	}
}

func TestConfigTiers(t *testing.T) {
	if Config2D9T.Tiers() != 1 || Config2D12T.Tiers() != 1 {
		t.Error("2-D tiers wrong")
	}
	if ConfigM3D9T.Tiers() != 2 || ConfigHetero.Tiers() != 2 {
		t.Error("3-D tiers wrong")
	}
}

func TestTimingMet(t *testing.T) {
	p := &PPAC{FreqGHz: 1, WNS: -0.05}
	if !p.TimingMet() {
		t.Error("5% slack at 1 GHz should be met")
	}
	p.WNS = -0.1
	if p.TimingMet() {
		t.Error("10% slack should fail")
	}
}
