package eval

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/designs"
	"repro/internal/report"
	"repro/internal/spice"
	"repro/internal/tech"
)

// homogeneous configuration order of Table VII's column groups.
var homogConfigs = []core.ConfigName{
	core.Config2D9T, core.Config2D12T, core.ConfigM3D9T, core.ConfigM3D12T,
}

// TableI derives the paper's qualitative 1–5 ranking of the five
// configurations from the measured suite: for each metric the five
// configurations are ranked across the evaluated designs (averaged), 1 =
// worst, 5 = best, matching Table I's convention.
func (s *Suite) TableI() *report.Table {
	t := report.NewTable("Table I — measured PPAC ranking of the five configurations (1 = worst, 5 = best)",
		"Metric", "2D-9T", "M3D-9T", "2D-12T", "M3D-12T", "Hetero")
	order := []core.ConfigName{core.Config2D9T, core.ConfigM3D9T, core.Config2D12T, core.ConfigM3D12T, core.ConfigHetero}

	metric := func(name string, f func(*core.PPAC) float64, higherBetter bool) {
		// Average the metric over designs, then rank.
		avg := make(map[core.ConfigName]float64)
		for _, cfg := range order {
			sum, n := 0.0, 0
			for _, dn := range s.DesignsInOrder() {
				if r, ok := s.Results[dn][cfg]; ok {
					sum += f(r.PPAC)
					n++
				}
			}
			if n > 0 {
				avg[cfg] = sum / float64(n)
			}
		}
		type kv struct {
			cfg core.ConfigName
			v   float64
		}
		var list []kv
		for _, cfg := range order {
			list = append(list, kv{cfg, avg[cfg]})
		}
		sort.Slice(list, func(i, j int) bool {
			if higherBetter {
				return list[i].v < list[j].v
			}
			return list[i].v > list[j].v
		})
		rank := make(map[core.ConfigName]int)
		for i, e := range list {
			rank[e.cfg] = i + 1
		}
		t.AddRowf(name,
			fmt.Sprint(rank[core.Config2D9T]), fmt.Sprint(rank[core.ConfigM3D9T]),
			fmt.Sprint(rank[core.Config2D12T]), fmt.Sprint(rank[core.ConfigM3D12T]),
			fmt.Sprint(rank[core.ConfigHetero]))
	}

	achieved := func(p *core.PPAC) float64 { return 1 / p.EffDelayNS }
	metric("Frequency", achieved, true)
	metric("Power", func(p *core.PPAC) float64 { return p.PowerMW }, false)
	metric("Power/Freq", func(p *core.PPAC) float64 { return p.PowerMW * p.EffDelayNS }, false)
	metric("Footprint", func(p *core.PPAC) float64 { return p.FootprintMM2 }, false)
	metric("Si Area", func(p *core.PPAC) float64 { return p.SiAreaMM2 }, false)
	metric("Die Cost", func(p *core.PPAC) float64 { return p.DieCostMicroC }, false)
	return t
}

// TableII runs the driver-output FO-4 boundary experiment (Fig. 2a) and
// renders the paper's Table II, Δ% between the homogeneous and
// heterogeneous load cases.
func TableII() (*report.Table, error) {
	res, err := spice.DriverOutputExperiment(tech.Variant12T(), tech.Variant9T(), spice.DefaultSimOptions())
	if err != nil {
		return nil, err
	}
	return renderFO4Table("Table II — FO-4 heterogeneity at the driver OUTPUT (time ps, power µW)", res), nil
}

// TableIII runs the driver-input experiment (Fig. 2b) for Table III.
func TableIII() (*report.Table, error) {
	res, err := spice.DriverInputExperiment(tech.Variant12T(), tech.Variant9T(), spice.DefaultSimOptions())
	if err != nil {
		return nil, err
	}
	return renderFO4Table("Table III — FO-4 heterogeneity at the driver INPUT (time ps, power µW)", res), nil
}

func renderFO4Table(title string, res []spice.CaseResult) *report.Table {
	t := report.NewTable(title,
		"", res[0].Name, res[1].Name, "Δ%", res[2].Name, res[3].Name, "Δ%")
	d01 := spice.DeltaPct(res[0].M, res[1].M)
	d23 := spice.DeltaPct(res[2].M, res[3].M)
	t.AddRowf("Tier-0", res[0].Tier0, res[1].Tier0, "-", res[2].Tier0, res[3].Tier0, "-")
	t.AddRowf("Tier-1", res[0].Tier1, res[1].Tier1, "-", res[2].Tier1, res[3].Tier1, "-")
	row := func(name string, f func(spice.Measurement) float64, scale float64, prec int) {
		t.AddRowf(name,
			fmt.Sprintf("%.*f", prec, f(res[0].M)*scale),
			fmt.Sprintf("%.*f", prec, f(res[1].M)*scale),
			fmt.Sprintf("%+.1f", f(d01)),
			fmt.Sprintf("%.*f", prec, f(res[2].M)*scale),
			fmt.Sprintf("%.*f", prec, f(res[3].M)*scale),
			fmt.Sprintf("%+.1f", f(d23)))
	}
	row("Rise Slew", func(m spice.Measurement) float64 { return m.RiseSlew }, 1000, 1)
	row("Fall Slew", func(m spice.Measurement) float64 { return m.FallSlew }, 1000, 1)
	row("Rise Del.", func(m spice.Measurement) float64 { return m.RiseDelay }, 1000, 1)
	row("Fall Del.", func(m spice.Measurement) float64 { return m.FallDelay }, 1000, 1)
	row("Lkg. Pow.", func(m spice.Measurement) float64 { return m.Leakage }, 1, 4)
	row("Total Pow.", func(m spice.Measurement) float64 { return m.TotalPow }, 1, 3)
	return t
}

// TableIV renders the cost-model assumptions and derived quantities of
// the paper's Table IV, evaluated on a representative 0.39 mm² footprint.
func TableIV() *report.Table {
	m := cost.Default()
	t := report.NewTable("Table IV — cost model assumptions [Ku et al.] and derived values", "Quantity", "Value")
	t.AddRowf("Baseline wafer cost (FEOL+8 metals)", "C' (normalized 1.0)")
	t.AddRowf("Wafer FEOL cost", fmt.Sprintf("%.2f × C'", m.FEOLFrac))
	t.AddRowf("Wafer BEOL cost (6 metals)", fmt.Sprintf("%.2f × C'", float64(m.SignalLayers)*m.BEOLFracPerLayer))
	t.AddRowf("3D integration cost (α)", fmt.Sprintf("%.2f × C'", m.Alpha))
	t.AddRowf("Wafer diameter", fmt.Sprintf("%.0f mm", m.WaferDiameterMM))
	t.AddRowf("Defect density (D_w)", fmt.Sprintf("%.1f mm⁻²", m.DefectDensity))
	t.AddRowf("Wafer yield (κ)", fmt.Sprintf("%.2f", m.WaferYield))
	t.AddRowf("3D yield degradation (β)", fmt.Sprintf("%.2f", m.YieldDegradation3D))
	t.AddRowf("2D wafer cost (C_2D)", fmt.Sprintf("%.2f × C'", m.WaferCost2D()))
	t.AddRowf("3D wafer cost (C_3D)", fmt.Sprintf("%.2f × C'", m.WaferCost3D()))
	const ad = 0.39 // CPU-like footprint, mm²
	t.AddRowf("Example die area A_d", fmt.Sprintf("%.2f mm² (2D) / %.3f mm² per tier (3D)", ad, ad/2))
	t.AddRowf("Dies per wafer (1)", fmt.Sprintf("2D %.0f / 3D %.0f", m.DiesPerWafer(ad), m.DiesPerWafer(ad/2)))
	t.AddRowf("Die yield (2)(3)", fmt.Sprintf("2D %.3f / 3D %.3f", m.Yield2D(ad), m.Yield3D(ad/2)))
	c2, _ := m.DieCost2D(ad)
	c3, _ := m.DieCost3D(ad / 2)
	t.AddRowf("Die cost (5)", fmt.Sprintf("2D %.2f / 3D %.2f ×10⁻⁶C'", c2*1e6, c3*1e6))
	return t
}

// TableV runs the Table V ablation: the CPU design through the plain
// Pin-3D flow (heterogeneous tiers, no enhancements) versus the full
// Hetero-Pin-3D flow, at the CPU's 2D-12T f_max. The Hetero-Pin-3D column
// is the suite's CPU Hetero-M3D record; only the plain Pin-3D flow runs
// here, at the suite's scale and seed.
func (s *Suite) TableV() (*report.Table, error) {
	fmax, rh := s.Fmax[designs.CPU], s.Results[designs.CPU][core.ConfigHetero]
	if rh == nil {
		return nil, fmt.Errorf("eval: Table V needs the CPU in %s", core.ConfigHetero)
	}
	src, err := designs.Generate(designs.CPU, cell.NewLibrary(tech.Variant12T()),
		designs.Params{Scale: s.Opt.Scale, Seed: s.Opt.Seed})
	if err != nil {
		return nil, err
	}
	plain := core.DefaultOptions(fmax)
	plain.Seed = s.Opt.Seed
	plain.EnableTimingPartition = false
	plain.Enable3DCTS = false
	plain.EnableRepartition = false
	rp, err := core.Run(context.Background(), src, core.ConfigHetero, plain)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table V — Pin-3D vs Hetero-Pin-3D on the CPU (heterogeneous dies)",
		"Metric", "Units", "Pin-3D", "Hetero-Pin-3D")
	t.AddRowf("Frequency", "GHz", fmt.Sprintf("%.3f", fmax), fmt.Sprintf("%.3f", fmax))
	t.AddRowf("WL", "m", fmt.Sprintf("%.3f", rp.PPAC.WLm), fmt.Sprintf("%.3f", rh.PPAC.WLm))
	t.AddRowf("WNS", "ns", fmt.Sprintf("%+.3f", rp.PPAC.WNS), fmt.Sprintf("%+.3f", rh.PPAC.WNS))
	t.AddRowf("Total Power", "mW", fmt.Sprintf("%.1f", rp.PPAC.PowerMW), fmt.Sprintf("%.1f", rh.PPAC.PowerMW))
	return t, nil
}

// TableVI renders the raw heterogeneous-3-D PPAC of every design.
func (s *Suite) TableVI() *report.Table {
	t := report.NewTable("Table VI — PPAC of the 3-D heterogeneous designs (raw)",
		"Metric", "Units", "netcard", "aes", "ldpc", "cpu")
	cols := func(f func(*core.PPAC) string) []string {
		out := make([]string, 0, 4)
		for _, dn := range []designs.Name{designs.Netcard, designs.AES, designs.LDPC, designs.CPU} {
			r, ok := s.Results[dn][core.ConfigHetero]
			if !ok {
				out = append(out, "-")
				continue
			}
			out = append(out, f(r.PPAC))
		}
		return out
	}
	add := func(name, units string, f func(*core.PPAC) string) {
		t.AddRowf(append([]string{name, units}, cols(f)...)...)
	}
	add("Frequency", "GHz", func(p *core.PPAC) string { return fmt.Sprintf("%.3f", p.FreqGHz) })
	add("Area", "mm²", func(p *core.PPAC) string { return fmt.Sprintf("%.4f", p.SiAreaMM2) })
	add("Chip Width", "µm", func(p *core.PPAC) string { return fmt.Sprintf("%.0f", p.ChipWidthUM) })
	add("Density", "%", func(p *core.PPAC) string { return fmt.Sprintf("%.0f", p.Density*100) })
	add("WL", "m", func(p *core.PPAC) string { return fmt.Sprintf("%.3f", p.WLm) })
	add("# MIVs", "×1000", func(p *core.PPAC) string { return fmt.Sprintf("%.1f", float64(p.MIVs)/1000) })
	add("Total Power", "mW", func(p *core.PPAC) string { return fmt.Sprintf("%.1f", p.PowerMW) })
	add("WNS", "ns", func(p *core.PPAC) string { return fmt.Sprintf("%+.3f", p.WNS) })
	add("TNS", "ns", func(p *core.PPAC) string { return fmt.Sprintf("%+.2f", p.TNS) })
	add("Effective Delay", "ns", func(p *core.PPAC) string { return fmt.Sprintf("%.3f", p.EffDelayNS) })
	add("PDP", "pJ", func(p *core.PPAC) string { return fmt.Sprintf("%.1f", p.PDPpJ) })
	add("Die Cost", "10⁻⁶C'", func(p *core.PPAC) string { return fmt.Sprintf("%.2f", p.DieCostMicroC) })
	add("PPC", "GHz/(W·10⁻⁶C')", func(p *core.PPAC) string { return fmt.Sprintf("%.3f", p.PPC) })
	return t
}

// TableVII renders the percent deltas of the heterogeneous design against
// each homogeneous configuration: (hetero − config)/config × 100, so
// negative means hetero is smaller/faster/cheaper (except PPC, where
// positive means hetero wins) — the paper's convention.
func (s *Suite) TableVII() *report.Table {
	headers := []string{"Metric"}
	for _, cfg := range homogConfigs {
		for _, dn := range s.DesignsInOrder() {
			headers = append(headers, fmt.Sprintf("%s/%s", cfg, dn))
		}
	}
	t := report.NewTable("Table VII — PPAC Δ% of Hetero-M3D vs each homogeneous configuration ((hetero−config)/config×100)", headers...)

	row := func(name string, f func(*core.PPAC) float64, pct bool) {
		cells := []string{name}
		for _, cfg := range homogConfigs {
			for _, dn := range s.DesignsInOrder() {
				het, ok1 := s.Results[dn][core.ConfigHetero]
				other, ok2 := s.Results[dn][cfg]
				if !ok1 || !ok2 {
					cells = append(cells, "-")
					continue
				}
				if !pct {
					cells = append(cells, fmt.Sprintf("%.3f", f(other.PPAC)))
					continue
				}
				base := f(other.PPAC)
				if base == 0 {
					cells = append(cells, "-")
					continue
				}
				cells = append(cells, fmt.Sprintf("%+.1f", (f(het.PPAC)-base)/base*100))
			}
		}
		t.AddRowf(cells...)
	}
	row("Si Area", func(p *core.PPAC) float64 { return p.SiAreaMM2 }, true)
	row("Density", func(p *core.PPAC) float64 { return p.Density }, true)
	row("WL", func(p *core.PPAC) float64 { return p.WLm }, true)
	row("Total Power", func(p *core.PPAC) float64 { return p.PowerMW }, true)
	row("Eff. Delay", func(p *core.PPAC) float64 { return p.EffDelayNS }, true)
	row("PDP", func(p *core.PPAC) float64 { return p.PDPpJ }, true)
	row("Die Cost", func(p *core.PPAC) float64 { return p.DieCostMicroC }, true)
	row("Cost per cm²", func(p *core.PPAC) float64 { return p.CostPerCm2 }, true)
	row("PPC", func(p *core.PPAC) float64 { return p.PPC }, true)
	row("Width (µm)", func(p *core.PPAC) float64 { return p.ChipWidthUM }, false)
	row("WNS (ns)", func(p *core.PPAC) float64 { return p.WNS }, false)
	row("TNS (ns)", func(p *core.PPAC) float64 { return p.TNS }, false)
	return t
}

// TableVIII renders the clock-network, critical-path, and
// memory-interconnect deep dive of the CPU design across the best 2-D,
// best homogeneous 3-D, and heterogeneous implementations.
func (s *Suite) TableVIII() (*report.Table, error) {
	dives := make(map[core.ConfigName]*core.DeepDive)
	for _, cfg := range []core.ConfigName{core.Config2D12T, core.ConfigM3D12T, core.ConfigHetero} {
		r, ok := s.Results[designs.CPU][cfg]
		if !ok {
			return nil, fmt.Errorf("eval: Table VIII needs the CPU in %s", cfg)
		}
		if r.Dive == nil {
			return nil, fmt.Errorf("eval: Table VIII: the CPU's %s record has no deep dive", cfg)
		}
		dives[cfg] = r.Dive
	}
	d2, m3, het := dives[core.Config2D12T], dives[core.ConfigM3D12T], dives[core.ConfigHetero]

	t := report.NewTable("Table VIII — CPU clock network, critical path, and memory interconnect analyses",
		"Metric", "Units", "2D-12T", "M3D-12T", "Hetero-M3D")
	f := func(name, units string, v2, v3, vh string) { t.AddRowf(name, units, v2, v3, vh) }
	f3 := func(name, units string, g func(*core.DeepDive) float64, format string) {
		f(name, units, fmt.Sprintf(format, g(d2)), fmt.Sprintf(format, g(m3)), fmt.Sprintf(format, g(het)))
	}
	t.AddRowf("--- Memory Interconnects ---", "", "", "", "")
	f3("Input Net Latency", "ps", func(d *core.DeepDive) float64 { return d.MemInLatencyPS }, "%.2f")
	f3("Output Net Latency", "ps", func(d *core.DeepDive) float64 { return d.MemOutLatencyPS }, "%.2f")
	f3("Net Switching Power", "µW", func(d *core.DeepDive) float64 { return d.MemNetSwitchUW }, "%.2f")
	t.AddRowf("--- Clock Network ---", "", "", "", "")
	f("Buffer Count", "", fmt.Sprint(d2.ClockBuffers), fmt.Sprint(m3.ClockBuffers), fmt.Sprint(het.ClockBuffers))
	f("Top Buffer Count", "", "-", fmt.Sprint(m3.TopBuffers), fmt.Sprint(het.TopBuffers))
	f("Bottom Buffer Count", "", "-", fmt.Sprint(m3.BottomBuffers), fmt.Sprint(het.BottomBuffers))
	f3("Buffer Area", "µm²", func(d *core.DeepDive) float64 { return d.ClockBufferAreaUM2 }, "%.0f")
	f3("Wirelength", "mm", func(d *core.DeepDive) float64 { return d.ClockWLmm }, "%.3f")
	f3("Max Latency", "ns", func(d *core.DeepDive) float64 { return d.ClockMaxLatencyNS }, "%.3f")
	f3("Max Skew", "ns", func(d *core.DeepDive) float64 { return d.ClockMaxSkewNS }, "%.3f")
	f3("100 Path Avg. Skew", "ns", func(d *core.DeepDive) float64 { return d.AvgSkew100NS }, "%+.4f")
	t.AddRowf("--- Critical Path ---", "", "", "", "")
	f3("Clock Period", "ns", func(d *core.DeepDive) float64 { return d.ClockPeriodNS }, "%.3f")
	f3("Slack", "ns", func(d *core.DeepDive) float64 { return d.SlackNS }, "%+.3f")
	f3("Clock Skew", "ns", func(d *core.DeepDive) float64 { return d.CritSkewNS }, "%+.3f")
	f3("Setup Time", "ns", func(d *core.DeepDive) float64 { return d.SetupNS }, "%.3f")
	f3("Path Delay", "ns", func(d *core.DeepDive) float64 { return d.PathDelayNS }, "%.3f")
	f3("Wire Delay", "ns", func(d *core.DeepDive) float64 { return d.WireDelayNS }, "%.3f")
	f3("Wirelength", "µm", func(d *core.DeepDive) float64 { return d.PathWLum }, "%.1f")
	f("Top Wirelength", "µm", "-", fmt.Sprintf("%.1f", m3.TopWLum), fmt.Sprintf("%.1f", het.TopWLum))
	f("Bottom Wirelength", "µm", "-", fmt.Sprintf("%.1f", m3.BottomWLum), fmt.Sprintf("%.1f", het.BottomWLum))
	f3("Cell Delay", "ns", func(d *core.DeepDive) float64 { return d.CellDelayNS }, "%.3f")
	f("Total Cells", "", fmt.Sprint(d2.PathCells), fmt.Sprint(m3.PathCells), fmt.Sprint(het.PathCells))
	f("# MIVs", "", "-", fmt.Sprint(m3.PathMIVs), fmt.Sprint(het.PathMIVs))
	f("Top Cells", "", "-", fmt.Sprint(m3.TopCells), fmt.Sprint(het.TopCells))
	f("Top Cell Delay", "ns", "-", fmt.Sprintf("%.3f", m3.TopCellDelayNS), fmt.Sprintf("%.3f", het.TopCellDelayNS))
	f("Avg. Top Delay", "ns", "-", fmt.Sprintf("%.4f", m3.AvgTopDelayNS), fmt.Sprintf("%.4f", het.AvgTopDelayNS))
	f("Bottom Cells", "", "-", fmt.Sprint(m3.BottomCells), fmt.Sprint(het.BottomCells))
	f("Bottom Cell Delay", "ns", "-", fmt.Sprintf("%.3f", m3.BotCellDelayNS), fmt.Sprintf("%.3f", het.BotCellDelayNS))
	f("Avg. Bottom Delay", "ns", "-", fmt.Sprintf("%.4f", m3.AvgBotDelayNS), fmt.Sprintf("%.4f", het.AvgBotDelayNS))
	return t, nil
}
