package placement

import (
	"math"
	"testing"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
	"prop/internal/spectral"
)

func pathH(t *testing.T, n int) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.EnsureNodes(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddNet("", 1, i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// TestCGPathInterpolation: on a path with endpoints pinned at 0 and 1, the
// quadratic placement is exactly the linear interpolation x_i = i/(n−1) —
// the discrete harmonic function.
func TestCGPathInterpolation(t *testing.T) {
	const n = 50
	h := pathH(t, n)
	l := spectral.NewLaplacian(hypergraph.CliqueExpand(h))
	solver := newCG(l, 1e-12, 5000)
	w := make([]float64, n)
	tgt := make([]float64, n)
	strong := 1e6
	w[0], tgt[0] = strong, 0
	w[n-1], tgt[n-1] = strong, 1
	x := make([]float64, n)
	if err := solver.solve(x, w, tgt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64(i) / float64(n-1)
		if math.Abs(x[i]-want) > 1e-5 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
}

// TestParaboliPath: the analytical partitioner must find the optimal cut of
// 1 on a path.
func TestParaboliPath(t *testing.T) {
	h := pathH(t, 64)
	res, err := Paraboli(h, Config{Balance: partition.Exact5050()})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutCost != 1 {
		t.Errorf("path cut = %g, want 1", res.CutCost)
	}
}

// TestParaboliGenerated: balance and bookkeeping on a realistic circuit,
// and the placement actually separates the two sides.
func TestParaboliGenerated(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 600, Nets: 660, Pins: 2200, Seed: 33})
	bal := partition.B4555()
	res, err := Paraboli(h, Config{Balance: bal})
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition.NewBisection(h, res.Sides)
	if err != nil {
		t.Fatal(err)
	}
	if b.CutCost() != res.CutCost {
		t.Errorf("reported cut %g, recount %g", res.CutCost, b.CutCost())
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
		t.Errorf("unbalanced: %d of %d", b.SideWeight(0), h.TotalNodeWeight())
	}
	if res.CGIterations <= 0 {
		t.Error("CG did no work")
	}
	// Sanity: mean placement of side 0 below side 1.
	var m0, m1 float64
	var c0, c1 int
	for u, s := range res.Sides {
		if s == 0 {
			m0 += res.Placement[u]
			c0++
		} else {
			m1 += res.Placement[u]
			c1++
		}
	}
	if c0 == 0 || c1 == 0 {
		t.Fatal("degenerate split")
	}
	if m0/float64(c0) >= m1/float64(c1) {
		t.Errorf("side means not separated: %g vs %g", m0/float64(c0), m1/float64(c1))
	}
}

// TestFarthestFrom: two-sweep BFS on a path finds an endpoint.
func TestFarthestFrom(t *testing.T) {
	h := pathH(t, 10)
	g := hypergraph.CliqueExpand(h)
	f1 := farthestFrom(g, 4)
	if f1 != 0 && f1 != 9 {
		t.Errorf("farthest from middle = %d, want an endpoint", f1)
	}
	f2 := farthestFrom(g, f1)
	if (f1 == 0 && f2 != 9) || (f1 == 9 && f2 != 0) {
		t.Errorf("double sweep = (%d,%d), want the two endpoints", f1, f2)
	}
}
