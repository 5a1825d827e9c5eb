// Extension benchmarks: experiments the paper motivates but does not
// tabulate — the rejected level-shifter design style (Sec. III-B), the
// track-mix exploration its conclusion calls for, and the power-delivery
// study it defers to future work.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/pdn"
	"repro/internal/report"
	"repro/internal/tech"
)

// BenchmarkLevelShifterAblation quantifies Sec. III-B: heterogeneous 3-D
// with a level shifter on every tier-crossing net versus the paper's
// level-shifter-free style.
func BenchmarkLevelShifterAblation(b *testing.B) {
	lib12 := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate(designs.CPU, lib12, designs.Params{Scale: 0.1, Seed: *benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	fopt := core.DefaultFmaxOptions()
	fopt.Iterations = 4
	fmax, _, err := core.FindFmax(context.Background(), fopt, core.FlowProbe(src, core.Config2D12T, core.DefaultOptions(1)))
	if err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		plain, err := core.Run(context.Background(), src, core.ConfigHetero, core.DefaultOptions(fmax))
		if err != nil {
			b.Fatal(err)
		}
		opt := core.DefaultOptions(fmax)
		opt.ForceLevelShifters = true
		shifted, err := core.Run(context.Background(), src, core.ConfigHetero, opt)
		if err != nil {
			b.Fatal(err)
		}
		t := report.NewTable(fmt.Sprintf("Level-shifter ablation — CPU hetero @ %.3f GHz", fmax),
			"Metric", "no shifters (paper)", "shifters everywhere")
		p, s := plain.PPAC, shifted.PPAC
		t.AddRowf("Cells", fmt.Sprint(p.Cells), fmt.Sprint(s.Cells))
		t.AddRowf("WNS (ns)", fmt.Sprintf("%+.3f", p.WNS), fmt.Sprintf("%+.3f", s.WNS))
		t.AddRowf("Total power (mW)", fmt.Sprintf("%.2f", p.PowerMW), fmt.Sprintf("%.2f", s.PowerMW))
		t.AddRowf("WL (m)", fmt.Sprintf("%.3f", p.WLm), fmt.Sprintf("%.3f", s.WLm))
		t.AddRowf("PDP (pJ)", fmt.Sprintf("%.2f", p.PDPpJ), fmt.Sprintf("%.2f", s.PDPpJ))
		t.AddRowf("Flow", p.Refinement, s.Refinement)
		out = t.String()
	}
	printOnce(b, out)
}

// BenchmarkTrackMix sweeps the heterogeneous top-die library across
// synthetic 9/10/11-track variants — the exploration the paper's
// conclusion requests.
func BenchmarkTrackMix(b *testing.B) {
	lib12 := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate(designs.CPU, lib12, designs.Params{Scale: 0.1, Seed: *benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	fopt := core.DefaultFmaxOptions()
	fopt.Iterations = 4
	fmax, _, err := core.FindFmax(context.Background(), fopt, core.FlowProbe(src, core.Config2D12T, core.DefaultOptions(1)))
	if err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		t := report.NewTable(fmt.Sprintf("Track-mix exploration — CPU hetero @ %.3f GHz, bottom die fixed at 12-track", fmax),
			"Top die", "VDD", "Si mm²", "P mW", "WNS ns", "met", "PDP pJ", "PPC")
		for _, tr := range []int{9, 10, 11} {
			v, err := tech.MakeVariant(tr)
			if err != nil {
				b.Fatal(err)
			}
			opt := core.DefaultOptions(fmax)
			opt.TopVariant = &v
			r, err := core.Run(context.Background(), src, core.ConfigHetero, opt)
			if err != nil {
				b.Fatal(err)
			}
			p := r.PPAC
			t.AddRowf(fmt.Sprintf("%d-track", tr), fmt.Sprintf("%.2f V", v.VDD),
				fmt.Sprintf("%.4f", p.SiAreaMM2), fmt.Sprintf("%.2f", p.PowerMW),
				fmt.Sprintf("%+.3f", p.WNS), fmt.Sprint(p.TimingMet()),
				fmt.Sprintf("%.2f", p.PDPpJ), fmt.Sprintf("%.2f", p.PPC))
		}
		out = t.String()
	}
	printOnce(b, out)
}

// BenchmarkPDN solves the IR-drop of the heterogeneous CPU — the
// power-delivery study the paper leaves as future work.
func BenchmarkPDN(b *testing.B) {
	lib12 := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate(designs.CPU, lib12, designs.Params{Scale: 0.1, Seed: *benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.Run(context.Background(), src, core.ConfigHetero, core.DefaultOptions(0.5))
	if err != nil {
		b.Fatal(err)
	}
	r2d, err := core.Run(context.Background(), src, core.Config2D12T, core.DefaultOptions(0.5))
	if err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		t := report.NewTable("PDN IR-drop (paper future work): hetero 3-D vs 2-D, 5-pad mesh",
			"Die", "VDD", "Current A", "Worst droop mV", "Droop %", "Worst @")
		add := func(label string, reps []pdn.TierReport) {
			for _, rep := range reps {
				t.AddRowf(fmt.Sprintf("%s %s", label, rep.Tier),
					fmt.Sprintf("%.2f", rep.VDD),
					fmt.Sprintf("%.4f", rep.CurrentA),
					fmt.Sprintf("%.2f", rep.WorstDroopV*1000),
					fmt.Sprintf("%.2f", rep.DroopFrac()*100),
					rep.WorstLoc.String())
			}
		}
		reps, err := pdn.Analyze(r.Design, r.Outline, 2, r.Power, pdn.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		add("hetero", reps)
		reps2, err := pdn.Analyze(r2d.Design, r2d.Outline, 1, r2d.Power, pdn.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		add("2D-12T", reps2)
		out = t.String()
	}
	printOnce(b, out)
}
