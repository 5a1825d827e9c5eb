// Quickstart: generate a benchmark netlist, implement it as a
// heterogeneous monolithic 3-D IC with the Hetero-Pin-3D flow, and print
// its PPAC record.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/tech"
)

func main() {
	// 1. Build the 12-track library (the pseudo-3-D stage's technology)
	//    and generate a small CPU-like netlist.
	lib12 := cell.NewLibrary(tech.Variant12T())
	src, err := designs.Generate(designs.CPU, lib12, designs.Params{Scale: 0.05, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	stats := src.ComputeStats()
	fmt.Printf("generated %s: %d cells, %d macros, %d registers\n",
		src.Name, stats.Cells, stats.Macros, stats.Sequential)

	// 2. Find the design's 2D-12T maximum frequency — the paper's
	//    iso-performance target for every implementation.
	fmax, _, err := core.FindFmax(context.Background(), core.DefaultFmaxOptions(),
		core.FlowProbe(src, core.Config2D12T, core.DefaultOptions(1)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2D-12T f_max = %.3f GHz\n", fmax)

	// 3. Run the heterogeneous flow: timing-based partitioning, 9-track
	//    retargeting of the top die, 3-D clock tree, repartitioning ECO.
	r, err := core.Run(context.Background(), src, core.ConfigHetero, core.DefaultOptions(fmax))
	if err != nil {
		log.Fatal(err)
	}
	p := r.PPAC
	fmt.Printf("\nHetero-M3D @ %.3f GHz:\n", p.FreqGHz)
	fmt.Printf("  silicon area   %.4f mm² (footprint %.4f mm², width %.0f µm)\n",
		p.SiAreaMM2, p.FootprintMM2, p.ChipWidthUM)
	fmt.Printf("  wirelength     %.3f m across %d MIVs\n", p.WLm, p.MIVs)
	fmt.Printf("  power          %.2f mW (clock %.2f mW, leakage %.2f mW)\n",
		p.PowerMW, p.ClockPowerMW, p.LeakageMW)
	fmt.Printf("  timing         WNS %+0.3f ns, met=%v, effective delay %.3f ns\n",
		p.WNS, p.TimingMet(), p.EffDelayNS)
	fmt.Printf("  PDP            %.2f pJ\n", p.PDPpJ)
	fmt.Printf("  die cost       %.3f ×10⁻⁶C' (%.1f ×10⁻⁶C'/cm²)\n", p.DieCostMicroC, p.CostPerCm2)
	fmt.Printf("  PPC            %.3f GHz/(W·10⁻⁶C')\n", p.PPC)
	fmt.Printf("  flow           %s\n", p.Refinement)

	// 4. Inspect the tier split the partitioner produced.
	ds := r.Design.ComputeStats()
	fmt.Printf("\ntier split: %d cells on the fast 12-track bottom die, %d on the 9-track top die\n",
		ds.CellsByTier[tech.TierBottom], ds.CellsByTier[tech.TierTop])
	fmt.Printf("cross-tier nets: %d of %d\n", ds.CrossTierNets, ds.Nets)
}
