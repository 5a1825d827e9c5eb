package partition

import (
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"
)

// randomHypergraph builds n cells of random (sometimes zero) area joined
// by random 2–4-pin nets, with about one cell in eight pinned to a side.
func randomHypergraph(rng *rand.Rand, n int) *Hypergraph {
	areas := make([]float64, n)
	for i := range areas {
		if rng.Intn(10) > 0 {
			areas[i] = 0.5 + 2*rng.Float64()
		}
	}
	h := NewHypergraph(areas)
	for i := range h.Fixed {
		if rng.Intn(8) == 0 {
			h.Fixed[i] = int8(rng.Intn(2))
		}
	}
	for e := 0; e < 2*n; e++ {
		pins := make([]int, 2+rng.Intn(3))
		for k := range pins {
			pins[k] = rng.Intn(n)
		}
		h.AddNet(pins...)
	}
	return h
}

// TestEngineReuseMatchesFreshFM runs one Engine over hypergraphs that
// grow and then shrink, with varying seeds, random and supplied initial
// assignments, and fixed pins. Every result must equal the package-level
// FM, which runs a fresh engine, on the same input; and every seed
// permutation the engine draws must equal Perm of a fresh PCG stream
// seeded the same way, so a longer earlier run can never leak into a
// shorter later one.
func TestEngineReuseMatchesFreshFM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var eng Engine
	for _, n := range []int{1, 6, 40, 300, 1200, 500, 90, 12, 2, 700, 3} {
		for rep := 0; rep < 3; rep++ {
			h := randomHypergraph(rng, n)
			opt := DefaultFMOptions()
			opt.Seed = rng.Int63n(1 << 40)
			opt.TargetFrac = 0.3 + 0.4*rng.Float64()
			var init []uint8
			if rep == 2 {
				init = make([]uint8, n)
				for i := range init {
					init[i] = uint8(i % 2)
					if f := h.Fixed[i]; f >= 0 {
						init[i] = uint8(f)
					}
				}
			}
			got, err := eng.FM(h, init, opt)
			if err != nil {
				t.Fatalf("n=%d rep=%d: engine: %v", n, rep, err)
			}
			want, err := FM(h, init, opt)
			if err != nil {
				t.Fatalf("n=%d rep=%d: FM: %v", n, rep, err)
			}
			if !slices.Equal(got.Side, want.Side) || got.Cut != want.Cut || got.AreaSide != want.AreaSide {
				t.Fatalf("n=%d rep=%d seed=%d: reused engine gave cut %d areas %v, fresh FM cut %d areas %v",
					n, rep, opt.Seed, got.Cut, got.AreaSide, want.Cut, want.AreaSide)
			}
			if init != nil {
				continue // supplied assignment: no permutation drawn
			}
			fresh := randv2.New(randv2.NewPCG(uint64(opt.Seed), pcgStream))
			if wantPerm := fresh.Perm(n); !slices.Equal(eng.perm, wantPerm) {
				t.Fatalf("n=%d seed=%d: engine permutation %v, Perm %v", n, opt.Seed, eng.perm, wantPerm)
			}
		}
	}
}
