package spectral

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// pathGraph builds a hypergraph whose clique expansion is the path P_n
// (2-pin nets), whose Laplacian eigenvalues are known in closed form:
// λ_k = 2 − 2·cos(kπ/n), k = 0..n−1.
func pathGraph(t *testing.T, n int) *hypergraph.Hypergraph {
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

// TestLanczosPathEigenvalues checks the computed smallest non-trivial
// eigenvalues of the path Laplacian against the analytic spectrum.
func TestLanczosPathEigenvalues(t *testing.T) {
	const n = 60
	h := pathGraph(t, n)
	l := NewLaplacian(hypergraph.CliqueExpand(h))
	if err := l.CheckSymmetry(); err != nil {
		t.Fatal(err)
	}
	eig, err := SmallestEigenpairs(l, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n))
		if got := eig.Values[k-1]; math.Abs(got-want) > 1e-8 {
			t.Errorf("lambda_%d = %.10f, want %.10f", k, got, want)
		}
	}
}

// TestLanczosResiduals: each Ritz pair must satisfy ‖Lv − λv‖ ≈ 0 and the
// vectors must be mutually orthogonal and orthogonal to the constant.
func TestLanczosResiduals(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 300, Nets: 330, Pins: 1100, Seed: 17})
	l := NewLaplacian(hypergraph.CliqueExpand(h))
	eig, err := SmallestEigenpairs(l, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range eig.Vectors {
		if r := Residual(l, eig.Values[j], v); r > 1e-6 {
			t.Errorf("eigenpair %d residual %g", j, r)
		}
		var s float64
		for _, x := range v {
			s += x
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("eigenvector %d not orthogonal to constant: sum %g", j, s)
		}
		for i := 0; i < j; i++ {
			if d := math.Abs(dot(eig.Vectors[i], v)); d > 1e-6 {
				t.Errorf("eigenvectors %d,%d not orthogonal: %g", i, j, d)
			}
		}
	}
	if eig.Values[0] < -1e-9 {
		t.Errorf("negative eigenvalue %g", eig.Values[0])
	}
	for j := 1; j < len(eig.Values); j++ {
		if eig.Values[j] < eig.Values[j-1]-1e-12 {
			t.Errorf("eigenvalues not ascending: %v", eig.Values)
		}
	}
}

// TestEIG1PathSplitsInMiddle: the Fiedler sweep of a path must cut one of
// the middle edges.
func TestEIG1PathSplitsInMiddle(t *testing.T) {
	h := pathGraph(t, 40)
	res, err := EIG1(h, EIG1Config{Balance: partition.Exact5050(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutCost != 1 {
		t.Errorf("path cut = %g, want 1", res.CutCost)
	}
	// The split must be a single contiguous boundary near the middle (the
	// one-cell balance slack permits 19/21 through 21/19).
	boundaries := 0
	for i := 1; i < 40; i++ {
		if res.Sides[i] != res.Sides[i-1] {
			boundaries++
			if i < 19 || i > 21 {
				t.Errorf("split at %d, want within [19, 21]", i)
			}
		}
	}
	if boundaries != 1 {
		t.Errorf("%d boundaries, want 1", boundaries)
	}
}

// TestEIG1AndMELOBalanced: both spectral methods respect the 45-55 window
// and report exact cut bookkeeping on generated circuits.
func TestEIG1AndMELOBalanced(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 500, Nets: 550, Pins: 1900, Seed: 23})
	bal := partition.B4555()
	e, err := EIG1(h, EIG1Config{Balance: bal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MELO(h, MELOConfig{Balance: bal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name, sides := range map[string][]uint8{"EIG1": e.Sides, "MELO": m.Sides} {
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			t.Fatal(err)
		}
		if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
			t.Errorf("%s: unbalanced: %d of %d", name, b.SideWeight(0), h.TotalNodeWeight())
		}
	}
	if e.Fiedler <= 0 {
		t.Errorf("Fiedler value %g, want > 0 for a connected circuit", e.Fiedler)
	}
}

// TestSweepCutOracle: on a small circuit SweepCut must return the true
// minimum over all feasible prefixes (brute-force check).
func TestSweepCutOracle(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 24, Nets: 30, Pins: 96, Seed: 9})
	rng := rand.New(rand.NewSource(2))
	order := rng.Perm(24)
	bal := partition.B4555()
	_, got, err := partition.SweepCut(h, order, bal)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force every prefix.
	best := math.Inf(1)
	for p := 1; p < 24; p++ {
		sides := make([]uint8, 24)
		for i := range sides {
			sides[i] = 1
		}
		for i := 0; i < p; i++ {
			sides[order[i]] = 0
		}
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			t.Fatal(err)
		}
		if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
			continue
		}
		if b.CutCost() < best {
			best = b.CutCost()
		}
	}
	if got != best {
		t.Errorf("SweepCut = %g, brute force = %g", got, best)
	}
}

// TestTql2SmallMatrix checks the tridiagonal solver against a hand
// diagonalizable 2x2 and a known 3x3.
func TestTql2SmallMatrix(t *testing.T) {
	// [[2,1],[1,2]] -> eigenvalues 1, 3.
	d := []float64{2, 2}
	e := []float64{1, 0}
	z := []float64{1, 0, 0, 1}
	if err := tql2(d, e, z, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-1) > 1e-12 || math.Abs(d[1]-3) > 1e-12 {
		t.Errorf("eigenvalues %v, want [1 3]", d)
	}
	// Path P3 Laplacian: diag 1,2,1 off -1: eigenvalues 0, 1, 3.
	d3 := []float64{1, 2, 1}
	e3 := []float64{-1, -1, 0}
	z3 := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	if err := tql2(d3, e3, z3, 3); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 3}
	for i := range want {
		if math.Abs(d3[i]-want[i]) > 1e-12 {
			t.Errorf("P3 eigenvalues %v, want %v", d3, want)
			break
		}
	}
}

// TestTql2RandomTridiagonal: for random symmetric tridiagonal matrices the
// decomposition must satisfy T·z_j = λ_j·z_j with ascending eigenvalues
// and orthonormal eigenvectors (testing/quick).
func TestTql2RandomTridiagonal(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := 2 + int(sizeRaw)%14
		rng := rand.New(rand.NewSource(seed))
		d := make([]float64, n)
		e := make([]float64, n)
		for i := range d {
			d[i] = rng.NormFloat64() * 3
			if i < n-1 {
				e[i] = rng.NormFloat64() * 2
			}
		}
		dOrig := append([]float64(nil), d...)
		eOrig := append([]float64(nil), e...)
		z := make([]float64, n*n)
		for i := 0; i < n; i++ {
			z[i*n+i] = 1
		}
		if err := tql2(d, e, z, n); err != nil {
			return false
		}
		for j := 1; j < n; j++ {
			if d[j] < d[j-1]-1e-12 {
				return false
			}
		}
		// Residual ‖T z_j − λ_j z_j‖ per eigenpair.
		mul := func(col int, i int) float64 {
			v := dOrig[i] * z[i*n+col]
			if i > 0 {
				v += eOrig[i-1] * z[(i-1)*n+col]
			}
			if i < n-1 {
				v += eOrig[i] * z[(i+1)*n+col]
			}
			return v
		}
		for j := 0; j < n; j++ {
			var resid, nrm float64
			for i := 0; i < n; i++ {
				r := mul(j, i) - d[j]*z[i*n+j]
				resid += r * r
				nrm += z[i*n+j] * z[i*n+j]
			}
			if math.Sqrt(resid) > 1e-8*(1+math.Abs(d[j])) || math.Abs(nrm-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuadFormEqualsCutWeight: for a 0/1 side-indicator vector x, xᵀLx
// equals the clique-graph cut weight — the identity quadratic placement
// relies on.
func TestQuadFormEqualsCutWeight(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 120, Nets: 140, Pins: 470, Seed: 29})
	g := hypergraph.CliqueExpand(h)
	l := NewLaplacian(g)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		sides := make([]uint8, h.NumNodes())
		x := make([]float64, h.NumNodes())
		for i := range sides {
			if rng.Intn(2) == 1 {
				sides[i] = 1
				x[i] = 1
			}
		}
		if d := l.QuadForm(x) - g.CutWeight(sides); math.Abs(d) > 1e-9 {
			t.Fatalf("trial %d: quad form differs from cut weight by %g", trial, d)
		}
	}
}
