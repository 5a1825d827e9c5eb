// Fixture for the pardet pass: violating and conforming work items for
// par.ParallelFor and par.Do.
package fixture

import (
	"math/rand"
	"sync"

	"repro/internal/par"
)

// scalarWrites: captured non-slot writes inside indexed work items.
func scalarWrites(vals []float64) float64 {
	var sum float64
	var count int
	par.ParallelFor(4, len(vals), func(i int) {
		sum += vals[i] // want "work item writes captured variable sum"
		count++        // want "work item writes captured variable count"
	})
	return sum
}

// untaintedIndex: an element store whose index does not derive from the
// work-item index.
func untaintedIndex(out []int, k int) {
	par.ParallelFor(2, len(out), func(i int) {
		out[k] = i // want "index that does not derive from the loop-index parameter"
		out[0] = i // want "index that does not derive from the loop-index parameter"
	})
}

// workerScratch: ParallelForWorker items may fill their worker's own
// scratch slot and their own output slot; a plain captured write is
// still flagged.
func workerScratch(out []int, workers int) int {
	scratch := make([][]int, workers)
	var last int
	par.ParallelForWorker(workers, len(out), func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = make([]int, 8)
		}
		scratch[w][0] = i
		out[i] = scratch[w][0]
		last = i // want "work item writes captured variable last"
	})
	return last
}

// containerGrowth: appends and map writes into captured containers.
func containerGrowth(n int) {
	var got []int
	seen := make(map[int]bool)
	par.ParallelFor(2, n, func(i int) {
		got = append(got, i) // want "appends to captured slice got"
		seen[i] = true       // want "writes into captured map through seen"
	})
	_ = got
}

// sharedRand: captured *rand.Rand and global math/rand draws.
func sharedRand(out []float64) {
	rng := rand.New(rand.NewSource(1))
	par.ParallelFor(2, len(out), func(i int) {
		out[i] = rng.Float64() // want "uses captured .rand.Rand rng"
		_ = rand.Intn(10)      // want "draws from the global math/rand stream"
	})
}

// doCollision: two par.Do closures writing the same captured location.
func doCollision() int {
	var total int
	var left, right int
	par.Do(2,
		func() {
			left = 1
			total += left // want "multiple par.Do closures write total"
		},
		func() {
			right = 2
			total += right // want "multiple par.Do closures write total"
		},
	)
	return total + left + right
}

// doAppendCollision: both closures append to one captured slice.
func doAppendCollision() []int {
	var all []int
	par.Do(2,
		func() { all = append(all, 1) }, // want "multiple par.Do closures write all"
		func() { all = append(all, 2) }, // want "multiple par.Do closures write all"
	)
	return all
}

// conforming: the sanctioned shapes stay silent.
func conforming(nets [][]int, out []int, wl []float64) {
	par.ParallelFor(4, len(nets), func(i int) {
		pins := nets[i] // local derivation taints pins
		total := 0      // := defines a local; never a captured write
		for _, p := range pins {
			total += p
		}
		out[i] = total
	})
	// Derived index through a local: n := lookup[i]; out[n] = ...
	lookup := out
	par.ParallelFor(2, len(out), func(i int) {
		n := lookup[i]
		wl[n] = float64(n)
	})
	// Per-item RNG from a pre-split seed is the sanctioned pattern.
	seeds := make([]int64, len(out))
	par.ParallelFor(2, len(out), func(i int) {
		r := rand.New(rand.NewSource(seeds[i]))
		out[i] = r.Intn(100)
	})
	// Distinct par.Do closure slots (the cts left/right fork shape).
	var lo, hi int
	par.Do(2,
		func() { lo = 1 },
		func() { hi = 2 },
	)
	_, _ = lo, hi
}

// audited: a mutex-guarded sink carries the directive.
func audited(vals []float64) float64 {
	var mu sync.Mutex
	var sum float64
	par.ParallelFor(4, len(vals), func(i int) {
		mu.Lock()
		sum += vals[i] //pardet:ignore mutex-guarded reduction, order-independent sum audited
		mu.Unlock()
	})
	return sum
}
