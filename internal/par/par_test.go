package par

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// blockCases returns fan-outs around the block-claim boundaries for
// workers ∈ {2, 3, 8}: n just below, at and above claimsPerWorker·workers
// (where claims stop being single items) and twice that (where the block
// grows to two items), plus a prime n ≈ 10⁴ whose last block is partial.
func blockCases() []struct{ workers, n int } {
	var out []struct{ workers, n int }
	for _, w := range []int{2, 3, 8} {
		c := claimsPerWorker * w
		for _, n := range []int{c - 1, c, c + 1, 2*c - 1, 2 * c, 2*c + 1, 10007} {
			out = append(out, struct{ workers, n int }{w, n})
		}
	}
	return out
}

func TestParallelForCoversAllItems(t *testing.T) {
	cases := []struct{ workers, n int }{{0, 1000}, {1, 1000}, {2, 1000}, {4, 1000}, {13, 1000}}
	for _, c := range append(cases, blockCases()...) {
		got := make([]int32, c.n)
		ParallelFor(c.workers, c.n, func(i int) { atomic.AddInt32(&got[i], 1) })
		for i, r := range got {
			if r != 1 {
				t.Fatalf("workers=%d n=%d: item %d executed %d times", c.workers, c.n, i, r)
			}
		}
	}
}

// TestParallelForWorkerExclusiveSlots pins the per-worker contract:
// every item runs once, its worker index lies in [0, max(1,
// min(workers, n))), and no two items with the same index overlap — so a
// worker-indexed scratch needs no lock. Each item marks its slot busy
// and fails if it finds it already taken.
func TestParallelForWorkerExclusiveSlots(t *testing.T) {
	cases := []struct{ workers, n int }{{0, 50}, {1, 50}, {3, 500}, {8, 5}, {4, 1}}
	for _, c := range append(cases, blockCases()...) {
		slots := max(1, min(c.workers, c.n))
		busy := make([]atomic.Int32, slots)
		ran := make([]int32, c.n)
		ParallelForWorker(c.workers, c.n, func(w, i int) {
			if w < 0 || w >= slots {
				t.Errorf("workers=%d n=%d: item %d got worker %d", c.workers, c.n, i, w)
				return
			}
			if !busy[w].CompareAndSwap(0, 1) {
				t.Errorf("workers=%d n=%d: worker slot %d used by two items at once", c.workers, c.n, w)
			}
			runtime.Gosched()
			ran[i]++
			busy[w].Store(0)
		})
		for i, r := range ran {
			if r != 1 {
				t.Fatalf("workers=%d n=%d: item %d ran %d times", c.workers, c.n, i, r)
			}
		}
	}
}

func TestParallelForOrderedResults(t *testing.T) {
	// The canonical use: each item writes its own slot; the collected
	// slice is identical at any worker count.
	compute := func(workers int) []int {
		out := make([]int, 257)
		ParallelFor(workers, len(out), func(i int) { out[i] = i * i })
		return out
	}
	want := compute(1)
	for _, w := range []int{2, 8, 32} {
		got := compute(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestParallelForEmptyAndSingle(t *testing.T) {
	ParallelFor(8, 0, func(int) { t.Fatal("fn called for n=0") })
	ran := 0
	ParallelFor(8, 1, func(i int) { ran++ })
	if ran != 1 {
		t.Fatalf("n=1 ran %d times", ran)
	}
}

// TestParallelForPanicLowestIndexWins pins the panic contract across
// block claims: the lowest panicking item is re-raised whichever block
// it sits in, and every other item still runs once, including those
// after a panic inside the same block.
func TestParallelForPanicLowestIndexWins(t *testing.T) {
	odd := func(n int) []int {
		var out []int
		for i := 3; i < n; i += 2 {
			out = append(out, i)
		}
		return out
	}
	cases := []struct {
		workers, n int
		panics     []int // ascending
	}{
		{1, 64, odd(64)},
		{8, 64, odd(64)},
		// 10007 items claim blocks of 156 on 2 workers and 104 on 3:
		// panics in the first block, a middle block, the partial last
		// block, and on both sides of a block edge.
		{2, 10007, []int{5, 4000, 10006}},
		{2, 10007, []int{4000, 10006}},
		{2, 10007, []int{10006}},
		{3, 10007, []int{103, 104, 9999}},
		{8, 2*claimsPerWorker*8 + 1, []int{2*claimsPerWorker*8 - 1, 2 * claimsPerWorker * 8}},
	}
	for _, c := range cases {
		ran := make([]int32, c.n)
		func() {
			defer func() {
				v := recover()
				wp, ok := v.(*WorkerPanic)
				if !ok {
					t.Fatalf("workers=%d n=%d: recovered %T (%v), want *WorkerPanic", c.workers, c.n, v, v)
				}
				if wp.Item != c.panics[0] {
					t.Errorf("workers=%d n=%d: panic attributed to item %d, want %d (lowest)", c.workers, c.n, wp.Item, c.panics[0])
				}
				if wp.Value != "boom" {
					t.Errorf("workers=%d n=%d: panic value %v, want boom", c.workers, c.n, wp.Value)
				}
				if len(wp.Stack) == 0 {
					t.Errorf("workers=%d n=%d: no stack captured", c.workers, c.n)
				}
			}()
			ParallelFor(c.workers, c.n, func(i int) {
				atomic.AddInt32(&ran[i], 1)
				if slices.Contains(c.panics, i) {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d n=%d: ParallelFor returned, want panic", c.workers, c.n)
		}()
		for i, r := range ran {
			if r != 1 {
				t.Fatalf("workers=%d n=%d: item %d ran %d times", c.workers, c.n, i, r)
			}
		}
	}
}

func TestPanicDoesNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for k := 0; k < 10; k++ {
		func() {
			defer func() { recover() }()
			ParallelFor(4, 100, func(i int) {
				if i == 50 {
					panic("x")
				}
			})
		}()
	}
	// All workers drain before the re-raise, so nothing lingers.
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew %d -> %d", before, after)
	}
}

func TestDo(t *testing.T) {
	a, b, c := 0, 0, 0
	Do(3, func() { a = 1 }, func() { b = 2 }, func() { c = 3 })
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("Do results %d %d %d", a, b, c)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestBudget(t *testing.T) {
	cases := []struct{ total, outer, want int }{
		{8, 2, 4},
		{8, 8, 1},
		{8, 16, 1},
		{8, 3, 2},
		{1, 4, 1},
		{4, 0, 4},
	}
	for _, c := range cases {
		if got := Budget(c.total, c.outer); got != c.want {
			t.Errorf("Budget(%d, %d) = %d, want %d", c.total, c.outer, got, c.want)
		}
	}
	if got := Budget(0, 1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Budget(0, 1) = %d, want GOMAXPROCS", got)
	}
}

// TestBudgetEdgeCases pins the degenerate inputs: a total smaller than
// the outer fan-out floors at one inner worker per job, non-positive
// arguments resolve instead of dividing by zero or going negative, and
// overflow-adjacent totals pass through undistorted.
func TestBudgetEdgeCases(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	cases := []struct {
		name               string
		total, outer, want int
	}{
		{"total smaller than outer", 2, 7, 1},
		{"total one, huge outer", 1, maxInt, 1},
		{"negative outer treated as one", 8, -2, 8},
		{"zero outer treated as one", 8, 0, 8},
		{"max total single job", maxInt, 1, maxInt},
		{"max total max outer", maxInt, maxInt, 1},
		{"near-max total two jobs", maxInt - 1, 2, (maxInt - 1) / 2},
	}
	for _, c := range cases {
		if got := Budget(c.total, c.outer); got != c.want {
			t.Errorf("%s: Budget(%d, %d) = %d, want %d", c.name, c.total, c.outer, got, c.want)
		}
	}
	// Negative totals mean "automatic", same as zero.
	if got := Budget(-5, 3); got != Budget(0, 3) {
		t.Errorf("Budget(-5, 3) = %d, want %d", got, Budget(0, 3))
	}
	// The documented invariant: whenever the budget can cover the outer
	// fan-out at all, outer × inner stays within it.
	for total := 1; total <= 16; total++ {
		for outer := 1; outer <= total; outer++ {
			if inner := Budget(total, outer); outer*inner > total {
				t.Errorf("Budget(%d, %d) = %d: outer×inner %d exceeds total", total, outer, inner, outer*inner)
			}
		}
	}
	// And the floor: inner never drops below one even when the budget
	// cannot cover the fan-out.
	for _, outer := range []int{2, 3, 100, maxInt} {
		if inner := Budget(1, outer); inner != 1 {
			t.Errorf("Budget(1, %d) = %d, want 1", outer, inner)
		}
	}
}

// TestWorkersEdgeCases pins the resolution rule at its boundaries.
func TestWorkersEdgeCases(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	auto := runtime.GOMAXPROCS(0)
	if got := Workers(maxInt); got != maxInt {
		t.Errorf("Workers(maxInt) = %d, want maxInt (explicit counts pass through)", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d, want 1", got)
	}
	for _, n := range []int{0, -1, -maxInt} {
		if got := Workers(n); got != auto {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, auto)
		}
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.Note(10)
	s.Note(5)
	if s.Batches != 2 || s.Tasks != 15 {
		t.Fatalf("stats = %+v", s)
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Batches != 4 || sum.Tasks != 30 {
		t.Fatalf("sum = %+v", sum)
	}
	var nilStats *Stats
	nilStats.Note(3) // must not panic
	nilStats.Add(s)
}
