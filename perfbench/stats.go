package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read from fewer samples is one or two outliers.
const minBeyond = 10

// tailCandidates are the percentiles a tail is chosen from.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// nearestRank returns the 1-based nearest rank of the p-th percentile
// (0 < p ≤ 100) among n samples: ⌈p·n/100⌉, clamped to [1, n]. The
// epsilon keeps products such as 95·200/100 from rounding up a rank.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it. It returns 0 for
// an empty set; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}

// beyond counts the samples ranked above the nearest-rank p-th percentile
// of n samples.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailPercentile returns the highest candidate percentile with at least
// minBeyond samples beyond it among n samples; ok is false when even the
// median lacks them.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailCandidates) - 1; i >= 0; i-- {
		if beyond(n, tailCandidates[i]) >= minBeyond {
			return tailCandidates[i], true
		}
	}
	return 0, false
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(xs, n=4), so spreads printed here match
// a pipeline that recomputes them in Python. With one sample both are it.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
