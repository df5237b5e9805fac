package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestGeoMeanRatio: hand case and scale invariance property.
func TestGeoMeanRatio(t *testing.T) {
	a := []float64{10, 10}
	b := []float64{5, 20}
	if g := GeoMeanRatio(a, b); !almost(g, 1) {
		t.Errorf("GeoMeanRatio = %g, want 1 (0.5 and 2 cancel)", g)
	}
	f := func(scaleRaw uint8, xsRaw []float64) bool {
		scale := 1 + float64(scaleRaw)/16
		var a, b []float64
		for i := 0; i+1 < len(xsRaw); i += 2 {
			x, y := math.Abs(xsRaw[i]), math.Abs(xsRaw[i+1])
			if !(x > 1e-6 && x < 1e6 && y > 1e-6 && y < 1e6) {
				continue // keep the scaled product finite
			}
			a = append(a, x)
			b = append(b, y)
		}
		if len(a) == 0 {
			return true
		}
		g1 := GeoMeanRatio(a, b)
		scaled := make([]float64, len(b))
		for i := range b {
			scaled[i] = b[i] * scale
		}
		g2 := GeoMeanRatio(a, scaled)
		return math.Abs(g2-g1*scale) < 1e-9*math.Max(1, g1*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestComparePaired reproduces the paper's Table-2 aggregation style.
func TestComparePaired(t *testing.T) {
	theirs := []float64{245, 32, 100}
	ours := []float64{154, 32, 120}
	p, err := ComparePaired(theirs, ours)
	if err != nil {
		t.Fatal(err)
	}
	if p.Wins != 1 || p.Losses != 1 || p.Ties != 1 {
		t.Errorf("W/L/T = %d/%d/%d", p.Wins, p.Losses, p.Ties)
	}
	wantTotal := (377.0 - 306) / 377 * 100
	if !almost(p.TotalImprovement, wantTotal) {
		t.Errorf("TotalImprovement = %g, want %g", p.TotalImprovement, wantTotal)
	}
	wantMean := ((245.0-154)/245*100 + 0 + (100.0-120)/120*100) / 3
	if !almost(p.MeanImprovement, wantMean) {
		t.Errorf("MeanImprovement = %g, want %g", p.MeanImprovement, wantMean)
	}
	if _, err := ComparePaired([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := ComparePaired(nil, nil); err == nil {
		t.Error("accepted empty comparison")
	}
}

// TestPairedString formats.
func TestPairedString(t *testing.T) {
	p := Paired{Wins: 3, Losses: 1, MeanImprovement: 12.5, TotalImprovement: 10, GeoRatio: 0.9}
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
