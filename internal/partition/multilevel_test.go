package partition

import (
	"math/rand"
	"slices"
	"testing"
)

// exactMinCut is the brute-force oracle: the smallest cut over every
// assignment that honours h's Fixed pins and puts side 0's area fraction
// within opt's window. ok is false when no assignment is balanced.
func exactMinCut(h *Hypergraph, opt FMOptions) (best int, ok bool) {
	n := h.NumCells()
	total := h.TotalArea()
	side := make([]uint8, n)
	best = -1
	for mask := 0; mask < 1<<n; mask++ {
		var a0 float64
		legal := true
		for i := 0; i < n; i++ {
			side[i] = uint8(mask >> i & 1)
			if f := h.Fixed[i]; f >= 0 && side[i] != uint8(f) {
				legal = false
				break
			}
			if side[i] == 0 {
				a0 += h.Area[i]
			}
		}
		if !legal {
			continue
		}
		if dev := a0/total - opt.TargetFrac; dev < -opt.Tolerance || dev > opt.Tolerance {
			continue
		}
		if c := CutSize(h, side); best < 0 || c < best {
			best = c
		}
	}
	return best, best >= 0
}

// denseHypergraph builds n unit-ish cells joined by 2n random 2–4-pin
// nets, with about one cell in eight pinned to a side: small enough to
// enumerate, dense enough that the cut is not trivially zero.
func denseHypergraph(rng *rand.Rand, n int) *Hypergraph {
	areas := make([]float64, n)
	for i := range areas {
		areas[i] = 1 + rng.Float64()
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

// TestVCycleNearExactOptimum runs whole V-cycles — coarsened down to 4
// cells, solved, projected and refined level by level — on graphs of up
// to 16 cells and compares each cut with the exhaustive optimum. The
// V-cycle is a heuristic, and these dense random graphs are hard for
// any local search, so the test pins how far it may stray: the worst
// excess and the share of exact hits measured over this seeded sample.
// A regression in coarsening, projection or refinement shows up as a
// larger excess or fewer exact hits.
func TestVCycleNearExactOptimum(t *testing.T) {
	const (
		trials = 300
		// Measured over this sample: worst excess 6 nets, 43.7 % exact
		// (flat FM from a random start: worst excess 7, 28.7 % exact).
		maxExcess   = 6
		minExactPct = 40.0
	)
	rng := rand.New(rand.NewSource(5))
	var e Engine
	exact, checked, worst := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 8 + rng.Intn(9) // 8..16 cells
		h := denseHypergraph(rng, n)
		opt := DefaultFMOptions()
		opt.Tolerance = 0.1
		opt.Seed = int64(trial)
		opt.MaxPasses = 6
		best, ok := exactMinCut(h, opt)
		if !ok {
			continue
		}
		sol, err := e.vcycle(h, opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := CutSize(h, sol.Side); got != sol.Cut {
			t.Fatalf("trial %d: reported cut %d, recount %d", trial, sol.Cut, got)
		}
		for i, f := range h.Fixed {
			if f >= 0 && sol.Side[i] != uint8(f) {
				t.Fatalf("trial %d: cell %d left its Fixed side", trial, i)
			}
		}
		if sol.Cut < best {
			t.Fatalf("trial %d: cut %d below the exhaustive optimum %d — the oracle or the cut count is wrong", trial, sol.Cut, best)
		}
		checked++
		if sol.Cut == best {
			exact++
		}
		worst = max(worst, sol.Cut-best)
	}
	pct := 100 * float64(exact) / float64(checked)
	t.Logf("%d balanced instances: %.1f %% exact, worst excess %d", checked, pct, worst)
	if checked < trials/2 {
		t.Fatalf("only %d of %d instances were balanceable", checked, trials)
	}
	if worst > maxExcess || pct < minExactPct {
		t.Errorf("V-cycle strays from the optimum: worst excess %d (pinned %d), %.1f %% exact (pinned >= %.0f %%)",
			worst, maxExcess, pct, minExactPct)
	}
}

// TestContractPreservesCutAndArea checks one coarsening step against its
// definition on random graphs: coarse areas sum their members, a coarse
// cell is fixed exactly when its members are (to the same side), and for
// every coarse assignment the weighted coarse cut equals the fine cut of
// its projection — the invariant that lets refinement start exactly
// where the coarser level ended.
func TestContractPreservesCutAndArea(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var e Engine
	e.seed(1)
	for trial := 0; trial < 60; trial++ {
		fine := randomHypergraph(rng, 20+rng.Intn(300))
		var lv level
		nc := e.contract(fine, &lv, 1e9)
		if nc != lv.h.NumCells() || nc > fine.NumCells() {
			t.Fatalf("trial %d: %d coarse cells reported, %d built, %d fine", trial, nc, lv.h.NumCells(), fine.NumCells())
		}
		if err := lv.h.Validate(); err != nil {
			t.Fatalf("trial %d: coarse level invalid: %v", trial, err)
		}
		sum := make([]float64, nc)
		for u, c := range lv.cmap {
			sum[c] += fine.Area[u]
			if lv.h.Fixed[c] != fine.Fixed[u] {
				t.Fatalf("trial %d: fine cell %d (Fixed %d) in coarse cell %d (Fixed %d)", trial, u, fine.Fixed[u], c, lv.h.Fixed[c])
			}
		}
		for c := range sum {
			if sum[c] != lv.h.Area[c] {
				t.Fatalf("trial %d: coarse cell %d area %v, members sum %v", trial, c, lv.h.Area[c], sum[c])
			}
		}
		coarse := make([]uint8, nc)
		proj := make([]uint8, fine.NumCells())
		for k := 0; k < 5; k++ {
			for c := range coarse {
				coarse[c] = uint8(rng.Intn(2))
			}
			for u, c := range lv.cmap {
				proj[u] = coarse[c]
			}
			if cc, fc := CutSize(&lv.h, coarse), CutSize(fine, proj); cc != fc {
				t.Fatalf("trial %d: weighted coarse cut %d, projected fine cut %d", trial, cc, fc)
			}
		}
	}
}

// TestCoarsenKeepsFixedPins follows a whole coarsening hierarchy: at
// every level each original cell sits in a cluster with exactly its own
// Fixed pin — pinned cells never share a cluster with free cells or with
// cells pinned to the other side.
func TestCoarsenKeepsFixedPins(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var e Engine
	for trial := 0; trial < 20; trial++ {
		h := randomHypergraph(rng, 500+rng.Intn(1500))
		e.seed(int64(trial))
		nlev := e.coarsen(h, 50)
		if nlev == 0 {
			t.Fatalf("trial %d: %d cells did not coarsen", trial, h.NumCells())
		}
		// owner[i] is original cell i's cell at the current level.
		owner := make([]int32, h.NumCells())
		for i := range owner {
			owner[i] = int32(i)
		}
		for k := 0; k < nlev; k++ {
			lv := e.vc.levels[k]
			for i := range owner {
				owner[i] = lv.cmap[owner[i]]
				if got := lv.h.Fixed[owner[i]]; got != h.Fixed[i] {
					t.Fatalf("trial %d level %d: cell %d (Fixed %d) sits in a cluster with Fixed %d",
						trial, k+1, i, h.Fixed[i], got)
				}
			}
		}
	}
}

// TestMultilevelDeterministicAndReusable pins the engine contract for
// the V-cycle: a reused engine — carrying coarse levels from larger and
// smaller earlier runs — returns exactly what a fresh one does, the
// reported cut is the recount, and every Fixed pin holds.
func TestMultilevelDeterministicAndReusable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var eng Engine
	for _, n := range []int{3000, 150, 800, 5000, 40, 1200} {
		h := randomHypergraph(rng, n)
		opt := DefaultFMOptions()
		opt.Seed = rng.Int63n(1 << 30)
		opt.Tolerance = 0.1
		got, err := eng.Multilevel(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Multilevel(h, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Side, want.Side) || got.Cut != want.Cut {
			t.Fatalf("n=%d: reused engine cut %d, fresh engine cut %d", n, got.Cut, want.Cut)
		}
		if got.Cut != CutSize(h, got.Side) {
			t.Fatalf("n=%d: reported cut %d, recount %d", n, got.Cut, CutSize(h, got.Side))
		}
		for i, f := range h.Fixed {
			if f >= 0 && got.Side[i] != uint8(f) {
				t.Fatalf("n=%d: cell %d left its Fixed side", n, i)
			}
		}
	}
}

// TestMultilevelBeatsFlatFM is the reason the V-cycle exists: on a
// graph with local structure (a ring of dense clusters) the multilevel
// cut is far below what flat FM reaches from a random start.
func TestMultilevelBeatsFlatFM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const clusters, size = 64, 40
	n := clusters * size
	areas := make([]float64, n)
	for i := range areas {
		areas[i] = 1
	}
	h := NewHypergraph(areas)
	for c := 0; c < clusters; c++ {
		base := c * size
		for k := 0; k < 3*size; k++ {
			h.AddNet(base+rng.Intn(size), base+rng.Intn(size), base+rng.Intn(size))
		}
		next := (c + 1) % clusters * size
		h.AddNet(base+rng.Intn(size), next+rng.Intn(size))
	}
	opt := DefaultFMOptions()
	opt.Tolerance = 0.1
	ml, err := Multilevel(h, opt)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := FM(h, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ring of %d clusters: multilevel cut %d, flat FM cut %d", clusters, ml.Cut, flat.Cut)
	if ml.Cut*2 > flat.Cut {
		t.Errorf("multilevel cut %d not below half of flat FM's %d", ml.Cut, flat.Cut)
	}
}
