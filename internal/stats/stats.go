// Package stats provides the descriptive statistics the experiment
// analysis uses: geometric means of ratios, win/loss records and the
// paper's improvement metric over paired method results.
package stats

import (
	"fmt"
	"math"
)

// GeoMeanRatio returns the geometric mean of b[i]/a[i] — the standard
// cross-benchmark aggregate for cut ratios. Pairs with a[i] ≤ 0 or
// b[i] ≤ 0 are skipped; NaN if nothing remains or lengths differ.
func GeoMeanRatio(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	var logSum float64
	n := 0
	for i := range a {
		if a[i] <= 0 || b[i] <= 0 {
			continue
		}
		logSum += math.Log(b[i] / a[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}

// Paired summarizes a per-circuit comparison of a baseline (theirs) versus
// a subject (ours), lower-is-better.
type Paired struct {
	Wins, Losses, Ties int
	// MeanImprovement is the average of the paper's metric
	// (theirs−ours)/max·100 over the pairs.
	MeanImprovement float64
	// TotalImprovement applies the same metric to the column totals, the
	// paper's headline aggregation.
	TotalImprovement float64
	// GeoRatio is the geometric mean of ours/theirs (< 1 = we win).
	GeoRatio float64
}

// ComparePaired computes the summary; slices must be the same length.
func ComparePaired(theirs, ours []float64) (Paired, error) {
	if len(theirs) != len(ours) {
		return Paired{}, fmt.Errorf("stats: paired lengths %d vs %d", len(theirs), len(ours))
	}
	if len(theirs) == 0 {
		return Paired{}, fmt.Errorf("stats: empty comparison")
	}
	var p Paired
	var impSum, totTheirs, totOurs float64
	for i := range theirs {
		switch {
		case ours[i] < theirs[i]:
			p.Wins++
		case ours[i] > theirs[i]:
			p.Losses++
		default:
			p.Ties++
		}
		impSum += improvement(theirs[i], ours[i])
		totTheirs += theirs[i]
		totOurs += ours[i]
	}
	p.MeanImprovement = impSum / float64(len(theirs))
	p.TotalImprovement = improvement(totTheirs, totOurs)
	p.GeoRatio = GeoMeanRatio(theirs, ours)
	return p, nil
}

// improvement is the paper's (theirs−ours)/max(theirs,ours)·100.
func improvement(theirs, ours float64) float64 {
	larger := theirs
	if ours > larger {
		larger = ours
	}
	if larger == 0 {
		return 0
	}
	return (theirs - ours) / larger * 100
}

// String renders a Paired summary on one line.
func (p Paired) String() string {
	return fmt.Sprintf("wins=%d losses=%d ties=%d meanImp=%.1f%% totalImp=%.1f%% geoRatio=%.3f",
		p.Wins, p.Losses, p.Ties, p.MeanImprovement, p.TotalImprovement, p.GeoRatio)
}
