package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestNearestRankPercentile(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50}, {100, 95, 95}, {100, 99, 99}, {100, 100, 100},
		{200, 95, 190}, {10, 95, 10}, {10, 50, 5}, {1, 50, 1},
		{3, 50, 2}, {4, 50, 2}, {1000, 99.9, 999},
	}
	for _, tc := range cases {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("p%g of 1..%d = %g, want %g", tc.p, tc.n, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty set: %g, want 0", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	}
	for _, tc := range cases {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tail of %d samples = p%g (%v), want p%g (%v)", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, p) < minBeyond {
			t.Errorf("%d samples: only %d beyond p%g", tc.n, beyond(tc.n, p), p)
		}
	}
	// The serve open loop's p95 needs at least 200 samples.
	if beyond(199, 95) >= minBeyond || beyond(200, 95) != minBeyond {
		t.Errorf("beyond(199,95)=%d beyond(200,95)=%d", beyond(199, 95), beyond(200, 95))
	}
}

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	}
	for _, tc := range cases {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}
