package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/tech"
)

// TestWiringSums pins sign-off's wirelength and MIV sums on a placed
// two-tier design with a clock net and port-driven nets: reading the
// slots sign-off power filled and routing only the rest must give the
// router's per-net values summed in net order — clock wirelength apart,
// clock MIVs included — without moving the store's hit/miss counters.
func TestWiringSums(t *testing.T) {
	d := cpuSrc(t)
	for i, inst := range d.Instances {
		inst.SetLoc(geom.Pt(float64(i%83)*2, float64((i*7)%61)*2))
		if i%3 == 0 {
			inst.SetTier(tech.TierTop)
		}
	}
	r := route.New()
	store := route.NewCache(r, d)
	for _, inst := range d.Instances { // what sign-off power extracts
		if out := d.OutputNet(inst); out != nil {
			store.Extract(out)
		}
	}
	var sig, clk float64
	var mivs, clockNets, portNets int
	for _, n := range d.Nets {
		if wl := r.NetWirelength(n); n.IsClock {
			clk += wl
			clockNets++
		} else {
			sig += wl
		}
		mivs += r.CountMIVs(n)
		if n.DriverPort != nil {
			portNets++
		}
	}
	if clockNets == 0 || portNets == 0 || mivs == 0 || clk == 0 {
		t.Fatalf("fixture lacks a case: %d clock nets (%v µm), %d port-driven nets, %d MIVs", clockNets, clk, portNets, mivs)
	}
	before := store.Stats()
	gotSig, gotClk, gotMIVs := wiring(d, r, store)
	if gotSig != sig || gotClk != clk || gotMIVs != mivs {
		t.Errorf("wiring = %v / %v µm, %d MIVs; router per net: %v / %v µm, %d MIVs", gotSig, gotClk, gotMIVs, sig, clk, mivs)
	}
	if s := store.Stats(); s != before {
		t.Errorf("wiring moved the store's counters: %+v → %+v", before, s)
	}
}
