package main

import (
	"math"
	"sort"
	"time"
)

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// seconds converts a time in seconds to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest value with at least p % of the
// samples at or below it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed exactly as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method) computes them; with one sample all three
// are that sample. It returns zeros for no samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for no samples.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance of xs as a share of its median:
// the noise figure each end-to-end bound is calibrated against.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// worseBy returns how much worse the median of b is than the median of
// a, as a share of a's median: positive when b is worse in the metric's
// direction, negative when better.
func worseBy(a, b []float64, better string) float64 {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0
	}
	d := (mb - ma) / math.Abs(ma)
	if better == "higher" {
		d = -d
	}
	return d
}

// agree reports whether two sets of runs of one metric agree within its
// bound: neither median is worse than the other by more than the bound.
func agree(a, b []float64, better string, bound float64) bool {
	return worseBy(a, b, better) <= bound && worseBy(b, a, better) <= bound
}
