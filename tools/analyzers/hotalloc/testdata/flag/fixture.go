// Fixture for the hotalloc pass.
package fixture

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// sum is an unmarked function: nothing in it may flag, whatever it
// allocates.
func sum(xs []int) map[int]bool {
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		var out []int
		out = append(out, x)
		seen[len(out)] = true
	}
	return seen
}

// hotMaps creates maps in a marked kernel: both forms flag.
//
//hotpath:kernel
func hotMaps(n int) int {
	m := make(map[int]int, n) // want "hot path allocates a map \(make\)"
	lit := map[string]bool{}  // want "hot path allocates a map literal"
	_ = lit
	return len(m)
}

// hotLoopMake allocates per iteration: flags.
//
//hotpath:kernel
func hotLoopMake(rows [][]int) int {
	total := 0
	for _, r := range rows {
		buf := make([]int, len(r)) // want "make inside a loop"
		copy(buf, r)
		total += len(buf)
	}
	return total
}

// hotLoopGrowth regrows slices born empty inside the loop: all three
// declaration forms flag.
//
//hotpath:kernel
func hotLoopGrowth(rows [][]int) int {
	total := 0
	for _, r := range rows {
		var a []int
		a = append(a, r...) // want "regrows slice a from zero every iteration"
		b := []int{}
		b = append(b, r...) // want "regrows slice b from zero every iteration"
		var c []int = nil
		c = append(c, r...) // want "regrows slice c from zero every iteration"
		total += len(a) + len(b) + len(c)
	}
	return total
}

// hotReuse appends through the sanctioned reuse idioms: scratch
// declared outside the loop, a reslice of it, and a capacity-carrying
// call result. None flag.
//
//hotpath:kernel
func hotReuse(rows [][]int, scratch []int) int {
	total := 0
	var acc []int
	for _, r := range rows {
		acc = append(acc, r...) // outer scratch: amortized, clean
		buf := scratch[:0]
		buf = append(buf, r...) // reslice carries capacity: clean
		got := carve(len(r))
		got = append(got, r...) // call result carries capacity: clean
		total += len(buf) + len(got)
	}
	// Clearing a retained map is legal; only creation flags.
	clear(retained)
	return total + len(acc)
}

var retained = map[int]bool{}

func carve(n int) []int { return make([]int, 0, n) }

// hotShadowedMake calls a local function named make: not the builtin,
// clean.
//
//hotpath:kernel
func hotShadowedMake(rows [][]int) int {
	make := func(n int) []int { return nil }
	total := 0
	for _, r := range rows {
		total += len(make(len(r)))
	}
	return total
}

// hotRand builds a random source and a permutation per call: all three
// flag.
//
//hotpath:kernel
func hotRand(seed int64, n int) []int {
	src := rand.NewSource(seed) // want "calls math/rand.NewSource, which allocates per call"
	rng := rand.New(src)        // want "calls math/rand.New, which allocates per call"
	return rng.Perm(n)          // want "calls \(\*math/rand.Rand\).Perm, which allocates per call"
}

// hotRandReuse re-seeds a caller-kept stream and draws the permutation
// into a caller-kept buffer: the sanctioned idiom, clean.
//
//hotpath:kernel
func hotRandReuse(rng *rand.Rand, seed int64, buf []int) {
	rng.Seed(seed)
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
}

// hotRandV2 does the same with math/rand/v2's PCG: all three flag.
//
//hotpath:kernel
func hotRandV2(seed uint64, n int) []int {
	src := randv2.NewPCG(seed, 1) // want "calls math/rand/v2.NewPCG, which allocates per call"
	rng := randv2.New(src)        // want "calls math/rand/v2.New, which allocates per call"
	return rng.Perm(n)            // want "calls \(\*math/rand/v2.Rand\).Perm, which allocates per call"
}

// hotRandV2Reuse re-seeds a caller-kept PCG in place and draws from the
// caller-kept Rand over it: clean.
//
//hotpath:kernel
func hotRandV2Reuse(pcg *randv2.PCG, rng *randv2.Rand, seed uint64, buf []int) {
	pcg.Seed(seed, 1)
	for i := len(buf) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		buf[i], buf[j] = buf[j], buf[i]
	}
}

// newStream is unmarked: the once-per-owner construction belongs here.
func newStream(seed int64) (*rand.Rand, []int) {
	rng := rand.New(rand.NewSource(seed))
	return rng, rng.Perm(4)
}

// Malformed hotpath markers are findings: each fails to mark the
// function, so the allocations below stay (wrongly) unflagged — the
// directive diagnostics are the only thing standing between a typo and
// a silently unchecked kernel.

//hotpath:kernl // want "unknown //hotpath: directive verb"
func typoVerb(n int) map[int]int {
	return make(map[int]int, n) // unmarked: not flagged
}

//hotpth:kernel // want "looks like a misspelled //hotpath:kernel directive"
func typoName(n int) map[int]int {
	return make(map[int]int, n) // unmarked: not flagged
}
