// Fiveways implements the AES benchmark in all five of the paper's
// configurations (Fig. 1) at the same iso-performance target and prints a
// side-by-side PPAC comparison — the per-design view behind Table VII.
// AES is the paper's stress case for heterogeneous 3-D: its 128 symmetric
// bit-slices give the timing-based partitioner the least criticality
// separation to work with.
//
//	go run ./examples/fiveways
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/report"
	"repro/internal/tech"
)

func main() {
	lib12 := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate(designs.AES, lib12, designs.Params{Scale: 0.1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aes: %d cells\n", src.ComputeStats().Cells)

	// The search's returned probe is the 2D-12T flow at f_max.
	fmax, best2d, err := core.FindFmax(context.Background(), core.DefaultFmaxOptions(),
		core.FlowProbe(src, core.Config2D12T, core.DefaultOptions(1)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iso-performance target: %.3f GHz (2D-12T f_max)\n\n", fmax)

	t := report.NewTable("AES across the five configurations",
		"Config", "Si mm²", "WL m", "MIVs", "P mW", "WNS ns", "met", "PDP pJ", "Cost µC'", "PPC")
	var het *core.PPAC
	for _, cfg := range core.AllConfigs {
		p := best2d
		if cfg != core.Config2D12T {
			r, err := core.Run(context.Background(), src, cfg, core.DefaultOptions(fmax))
			if err != nil {
				log.Fatal(err)
			}
			p = r.PPAC
		}
		t.AddRowf(string(cfg),
			fmt.Sprintf("%.4f", p.SiAreaMM2),
			fmt.Sprintf("%.3f", p.WLm),
			fmt.Sprint(p.MIVs),
			fmt.Sprintf("%.2f", p.PowerMW),
			fmt.Sprintf("%+.3f", p.WNS),
			fmt.Sprint(p.TimingMet()),
			fmt.Sprintf("%.2f", p.PDPpJ),
			fmt.Sprintf("%.3f", p.DieCostMicroC),
			fmt.Sprintf("%.1f", p.PPC))
		if cfg == core.ConfigHetero {
			het = p
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nhetero vs best 2-D: Si %+.1f%%, WL %+.1f%%, power %+.1f%%, PPC %+.1f%%\n",
		pct(het.SiAreaMM2, best2d.SiAreaMM2), pct(het.WLm, best2d.WLm),
		pct(het.PowerMW, best2d.PowerMW), pct(het.PPC, best2d.PPC))
	fmt.Println("(the paper finds AES the least hetero-friendly design — expect the")
	fmt.Println(" smallest wins here, and try -design cpu in cmd/hetero3d for the best case)")
}

func pct(a, b float64) float64 { return (a - b) / b * 100 }
