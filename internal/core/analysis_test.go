package core

import (
	"testing"

	"repro/internal/tech"
)

func TestDeepAnalyzeCPU(t *testing.T) {
	src := cpuSrc(t)
	for _, cfg := range []ConfigName{Config2D12T, ConfigM3D12T, ConfigHetero} {
		r := runCfg(t, src, cfg, testClock)
		dd, err := DeepAnalyze(r)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if !dd.HasMacros {
			t.Errorf("%s: CPU deep dive missing macros", cfg)
		}
		if dd.MemOutLatencyPS <= 0 {
			t.Errorf("%s: memory output latency = %v", cfg, dd.MemOutLatencyPS)
		}
		if dd.ClockBuffers == 0 || dd.ClockBufferAreaUM2 <= 0 {
			t.Errorf("%s: clock stats empty", cfg)
		}
		if dd.PathCells == 0 || dd.PathDelayNS <= 0 {
			t.Errorf("%s: critical path empty", cfg)
		}
		if again, err := DeepAnalyze(r); err != nil || *again != *dd {
			t.Errorf("%s: a second DeepAnalyze differs (%v):\n%+v\n%+v", cfg, err, *dd, again)
		}
		// Fig. 4 prints the worst path from the dive, whose path 0 comes
		// from CriticalPaths(100): it must be CriticalPaths(1)'s path.
		if p := r.Timing.CriticalPaths(1)[0]; dd.PathCells != len(p.Stages) ||
			dd.SlackNS != p.Slack || dd.PathWLum != p.Wirelength() {
			t.Errorf("%s: dive's worst path (%d cells, slack %v, %v µm) is not CriticalPaths(1)'s (%d, %v, %v)",
				cfg, dd.PathCells, dd.SlackNS, dd.PathWLum, len(p.Stages), p.Slack, p.Wirelength())
		}
		if dd.TopCells+dd.BottomCells != dd.PathCells {
			t.Errorf("%s: tier cells don't sum", cfg)
		}
		if cfg.Tiers() == 1 {
			if dd.TopCells != 0 || dd.TopBuffers != 0 {
				t.Errorf("%s: 2-D design has top-tier content", cfg)
			}
		}
	}
}

// Table VIII shapes that distinguish the heterogeneous implementation.
func TestDeepDiveHeteroShapes(t *testing.T) {
	src := cpuSrc(t)
	het, err := DeepAnalyze(runCfg(t, src, ConfigHetero, testClock))
	if err != nil {
		t.Fatal(err)
	}
	m3d, err := DeepAnalyze(runCfg(t, src, ConfigM3D12T, testClock))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DeepAnalyze(runCfg(t, src, Config2D12T, testClock))
	if err != nil {
		t.Fatal(err)
	}

	// Clock tree: hetero is top-heavy with smaller buffer area but worse
	// latency than homogeneous 3-D.
	if het.TopBuffers <= het.BottomBuffers {
		t.Errorf("hetero clock should be top-heavy: %d top vs %d bottom",
			het.TopBuffers, het.BottomBuffers)
	}
	if het.ClockBufferAreaUM2 >= m3d.ClockBufferAreaUM2 {
		t.Errorf("hetero clock area %v should be below M3D-12T %v",
			het.ClockBufferAreaUM2, m3d.ClockBufferAreaUM2)
	}
	if het.ClockMaxLatencyNS <= m3d.ClockMaxLatencyNS {
		t.Errorf("hetero clock latency %v should exceed M3D-12T %v",
			het.ClockMaxLatencyNS, m3d.ClockMaxLatencyNS)
	}

	// Critical path: most cells on the fast bottom die, and the slow-tier
	// average stage delay far above the fast-tier one.
	if het.BottomCells <= het.TopCells {
		t.Errorf("hetero critical path should favour the fast die: %d bottom vs %d top",
			het.BottomCells, het.TopCells)
	}
	if het.TopCells > 0 && het.AvgTopDelayNS <= het.AvgBotDelayNS {
		t.Errorf("slow-tier stage delay %v should exceed fast-tier %v",
			het.AvgTopDelayNS, het.AvgBotDelayNS)
	}

	// Memory interconnects: 3-D shortens macro nets vs 2-D.
	if het.MemOutLatencyPS >= d2.MemOutLatencyPS {
		t.Errorf("hetero memory latency %v should beat 2-D %v",
			het.MemOutLatencyPS, d2.MemOutLatencyPS)
	}
}

func TestDeepAnalyzeRequiresData(t *testing.T) {
	if _, err := DeepAnalyze(&Result{}); err == nil {
		t.Error("empty result should fail")
	}
}

func TestPathSkewGuards(t *testing.T) {
	src := cpuSrc(t)
	r := runCfg(t, src, ConfigHetero, testClock)
	paths := r.Timing.CriticalPaths(5)
	for _, p := range paths {
		if skew, ok := pathSkew(r.Clock.Latency, p); ok {
			// Sane bound: skew within the max tree skew.
			if skew > r.Clock.MaxSkew+1e-9 || skew < -r.Clock.MaxSkew-1e-9 {
				t.Errorf("path skew %v outside tree skew ±%v", skew, r.Clock.MaxSkew)
			}
		}
	}
	_ = tech.TierTop
}
