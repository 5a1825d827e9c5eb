package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// cliquePair builds two k-cliques joined by `bridges` nets: the optimal
// bisection cuts exactly the bridges.
func cliquePair(k, bridges int) *Hypergraph {
	areas := make([]float64, 2*k)
	for i := range areas {
		areas[i] = 1
	}
	h := NewHypergraph(areas)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			h.AddNet(i, j)
			h.AddNet(k+i, k+j)
		}
	}
	for b := 0; b < bridges; b++ {
		h.AddNet(b%k, k+(b+1)%k)
	}
	return h
}

func TestFMFindsCliqueCut(t *testing.T) {
	h := cliquePair(12, 3)
	sol, err := FM(h, nil, DefaultFMOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cut != 3 {
		t.Errorf("cut = %d, want 3 (the bridges)", sol.Cut)
	}
	// Perfect balance: 12 cells per side.
	if sol.AreaSide[0] != 12 || sol.AreaSide[1] != 12 {
		t.Errorf("areas = %v", sol.AreaSide)
	}
}

func TestFMRespectsBalanceTolerance(t *testing.T) {
	// 100 unit cells, fully random graph.
	rng := rand.New(rand.NewSource(42))
	areas := make([]float64, 100)
	for i := range areas {
		areas[i] = 1
	}
	h := NewHypergraph(areas)
	for i := 0; i < 300; i++ {
		a, b := rng.Intn(100), rng.Intn(100)
		if a != b {
			h.AddNet(a, b)
		}
	}
	opt := DefaultFMOptions()
	opt.Tolerance = 0.03
	sol, err := FM(h, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	frac := sol.AreaSide[0] / 100
	if frac < 0.5-0.031 || frac > 0.5+0.031 {
		t.Errorf("balance violated: frac = %v", frac)
	}
}

func TestFMHonorsFixedCells(t *testing.T) {
	h := cliquePair(8, 2)
	// Pin one cell of each clique to the "wrong" side.
	h.Fixed[0] = 1
	h.Fixed[8] = 0
	sol, err := FM(h, nil, DefaultFMOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Side[0] != 1 || sol.Side[8] != 0 {
		t.Error("fixed cells moved")
	}
}

func TestFMInitialAssignmentAccepted(t *testing.T) {
	h := cliquePair(6, 1)
	init := make([]uint8, 12)
	for i := 6; i < 12; i++ {
		init[i] = 1
	}
	sol, err := FM(h, init, DefaultFMOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cut != 1 {
		t.Errorf("cut = %d, want 1", sol.Cut)
	}
}

func TestFMInitialViolatingFixedRejected(t *testing.T) {
	h := cliquePair(4, 1)
	h.Fixed[0] = 1
	init := make([]uint8, 8) // cell 0 on side 0 contradicts Fixed=1
	if _, err := FM(h, init, DefaultFMOptions()); err == nil {
		t.Error("expected error for initial violating Fixed")
	}
}

func TestFMBadOptions(t *testing.T) {
	h := cliquePair(4, 1)
	opt := DefaultFMOptions()
	opt.TargetFrac = 0
	if _, err := FM(h, nil, opt); err == nil {
		t.Error("TargetFrac=0 should fail")
	}
	opt = DefaultFMOptions()
	if _, err := FM(h, make([]uint8, 3), opt); err == nil {
		t.Error("wrong-length initial should fail")
	}
}

func TestFMRepairsUnbalancedSeed(t *testing.T) {
	// All 20 cells start on side 0; FM must restore balance.
	areas := make([]float64, 20)
	for i := range areas {
		areas[i] = 1
	}
	h := NewHypergraph(areas)
	for i := 0; i < 19; i++ {
		h.AddNet(i, i+1)
	}
	init := make([]uint8, 20)
	opt := DefaultFMOptions()
	opt.Tolerance = 0.1
	sol, err := FM(h, init, opt)
	if err != nil {
		t.Fatal(err)
	}
	frac := sol.AreaSide[0] / 20
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("unbalanced seed not repaired: frac = %v", frac)
	}
}

// TestFMRepairsWhatItCanWhenPinsOverfill pins partial balance repair:
// six of ten cells are pinned to side 0, so no assignment reaches the
// 0.5 ± 0.05 window. FM must still move every free cell to side 1 — the
// closest reachable state — even though each move cuts a net to a
// pinned neighbour; keeping the skewed start for its smaller cut is what
// the bin refinement must not do.
func TestFMRepairsWhatItCanWhenPinsOverfill(t *testing.T) {
	areas := make([]float64, 10)
	for i := range areas {
		areas[i] = 1
	}
	h := NewHypergraph(areas)
	for i := 0; i < 6; i++ {
		h.Fixed[i] = 0
	}
	for i := 6; i < 10; i++ {
		h.AddNet(i, i-6) // each free cell hangs off a pinned one
	}
	opt := DefaultFMOptions()
	sol, err := FM(h, make([]uint8, 10), opt)
	if err != nil {
		t.Fatal(err)
	}
	if sol.AreaSide[0] != 6 || sol.Cut != 4 {
		t.Errorf("side 0 holds %v area with cut %d; want the 6 pinned cells alone (cut 4)", sol.AreaSide[0], sol.Cut)
	}
}

func TestFMAsymmetricTarget(t *testing.T) {
	areas := make([]float64, 40)
	for i := range areas {
		areas[i] = 1
	}
	h := NewHypergraph(areas)
	for i := 0; i < 39; i++ {
		h.AddNet(i, i+1)
	}
	opt := DefaultFMOptions()
	opt.TargetFrac = 0.25
	opt.Tolerance = 0.05
	sol, err := FM(h, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	frac := sol.AreaSide[0] / 40
	if frac < 0.19 || frac > 0.31 {
		t.Errorf("asymmetric target missed: frac = %v", frac)
	}
}

func TestCutSizeDegenerateNets(t *testing.T) {
	h := NewHypergraph([]float64{1, 1})
	h.AddNet(0) // single-pin net never cut
	h.AddNet()  // empty net
	h.AddNet(0, 1)
	side := []uint8{0, 1}
	if got := CutSize(h, side); got != 1 {
		t.Errorf("cut = %d, want 1", got)
	}
}

func TestHypergraphValidate(t *testing.T) {
	h := NewHypergraph([]float64{1, 2})
	h.AddNet(0, 1)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	h.AddNet(0, 5)
	if err := h.Validate(); err == nil {
		t.Error("out-of-range net should fail")
	}
	h2 := NewHypergraph([]float64{1, -1})
	if err := h2.Validate(); err == nil {
		t.Error("negative area should fail")
	}
	h3 := NewHypergraph([]float64{1})
	h3.Fixed[0] = 3
	if err := h3.Validate(); err == nil {
		t.Error("bad Fixed value should fail")
	}
}

// Property: FM never returns a worse cut than the (balanced) seed it was
// given, and always respects fixed pins — across random graphs.
func TestFMPropertyNeverWorseThanSeed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 24 + rng.Intn(40)
		areas := make([]float64, n)
		for i := range areas {
			areas[i] = 1
		}
		h := NewHypergraph(areas)
		for e := 0; e < n*3; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				h.AddNet(a, b)
			}
		}
		// Balanced alternating seed.
		init := make([]uint8, n)
		for i := range init {
			init[i] = uint8(i % 2)
		}
		fixed := rng.Intn(n)
		h.Fixed[fixed] = int8(init[fixed])

		before := CutSize(h, init)
		sol, err := FM(h, init, DefaultFMOptions())
		if err != nil {
			return false
		}
		if sol.Cut > before {
			return false
		}
		if sol.Side[fixed] != init[fixed] {
			return false
		}
		// Cached cut must equal the authoritative recount.
		return sol.Cut == CutSize(h, sol.Side)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: reported AreaSide always matches a recount.
func TestFMPropertyAreaConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		areas := make([]float64, n)
		for i := range areas {
			areas[i] = 0.5 + rng.Float64()*2
		}
		h := NewHypergraph(areas)
		for e := 0; e < n*2; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				h.AddNet(a, b)
			}
		}
		sol, err := FM(h, nil, DefaultFMOptions())
		if err != nil {
			return false
		}
		re := sideAreas(h, sol.Side)
		return math.Abs(re[0]-sol.AreaSide[0]) < 1e-9 && math.Abs(re[1]-sol.AreaSide[1]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMoveFilterMatchesBalancedAfter checks the pickMove area-threshold
// filter against the balancedAfter reference over randomized states: for
// every cell the two must agree exactly, including at the float
// boundaries the bisection resolves.
func TestMoveFilterMatchesBalancedAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		areas := make([]float64, n)
		for i := range areas {
			switch rng.Intn(4) {
			case 0:
				areas[i] = 0
			case 1:
				areas[i] = float64(rng.Intn(5)) * 0.17
			default:
				areas[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		h := NewHypergraph(areas)
		side := make([]uint8, n)
		for i := range side {
			side[i] = uint8(rng.Intn(2))
		}
		opt := DefaultFMOptions()
		opt.TargetFrac = 0.2 + 0.6*rng.Float64()
		opt.Tolerance = math.Pow(10, -1-3*rng.Float64())
		st := &fmState{}
		st.reset(h, opt)
		copy(st.side, side)
		st.area = sideAreas(h, side)
		flt := st.computeFilter()
		for c := 0; c < n; c++ {
			want := st.balancedAfter(int32(c))
			got := flt.ok(st.side[c], h.Area[c])
			if got != want {
				t.Fatalf("trial %d cell %d (side %d, area %v, a0 %v, total %v, target %v, tol %v): filter %v, balancedAfter %v",
					trial, c, st.side[c], h.Area[c], st.area[0], st.total, opt.TargetFrac, opt.Tolerance, got, want)
			}
		}
	}
}
