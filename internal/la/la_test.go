package la_test

import (
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/la"
	"prop/internal/partition"
)

// TestFigure1Vectors checks the LA-3 gain vectors the paper quotes for
// Figure 1(a): gain(1) = (2,0,0), gain(2) = gain(3) = (2,0,1) — LA-3 ranks
// nodes 2 and 3 above node 1 but cannot separate them.
func TestFigure1Vectors(t *testing.T) {
	f := gen.Figure1()
	b, err := partition.NewBisection(f.H, f.Sides)
	if err != nil {
		t.Fatalf("NewBisection: %v", err)
	}
	locked := make([]bool, f.H.NumNodes())
	for _, a := range f.Anchors {
		locked[a] = true
	}
	vecs := la.VectorsWithLocks(b, locked, 3)
	want := map[int][3]float64{
		1: {2, 0, 0},
		2: {2, 0, 1},
		3: {2, 0, 1},
	}
	for paperNode, w := range want {
		got := vecs[f.Node[paperNode]]
		if len(got) != 3 {
			t.Fatalf("vector of node %d has %d elements", paperNode, len(got))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("LA-3 gain(%d) = %v, want %v", paperNode, got, w)
				break
			}
		}
	}
}

// TestLA1MatchesFMGainLevel checks that level-1 of the LA vector equals the
// FM deterministic gain for every node of random circuits (Krishnamurthy's
// scheme degenerates to FM at k=1).
func TestLA1MatchesFMGainLevel(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 200, Nets: 220, Pins: 700, Seed: 7})
	rng := rand.New(rand.NewSource(3))
	sides := partition.RandomSides(h, partition.Exact5050(), rng)
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		t.Fatalf("NewBisection: %v", err)
	}
	vecs := la.VectorsWithLocks(b, make([]bool, h.NumNodes()), 1)
	for u := 0; u < h.NumNodes(); u++ {
		if got, want := vecs[u][0], b.Gain(u); got != want {
			t.Fatalf("LA-1 gain of node %d = %g, FM gain = %g", u, got, want)
		}
	}
}

// TestPartitionImprovesAndBalances runs LA-2 and LA-3 on generated circuits
// and checks the structural contract: balance respected, cut bookkeeping
// exact, cut not worse than the initial one.
func TestPartitionImprovesAndBalances(t *testing.T) {
	for _, k := range []int{2, 3} {
		h := gen.MustGenerate(gen.Params{Nodes: 300, Nets: 330, Pins: 1100, Seed: int64(40 + k)})
		rng := rand.New(rand.NewSource(int64(k)))
		bal := partition.Exact5050()
		sides := partition.RandomSides(h, bal, rng)
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			t.Fatalf("NewBisection: %v", err)
		}
		initial := b.CutCost()
		res, err := la.Partition(b, la.Config{K: k, Balance: bal})
		if err != nil {
			t.Fatalf("LA-%d: %v", k, err)
		}
		if res.CutCost > initial {
			t.Errorf("LA-%d worsened the cut: %g -> %g", k, initial, res.CutCost)
		}
		if err := b.Verify(); err != nil {
			t.Errorf("LA-%d: %v", k, err)
		}
		if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
			t.Errorf("LA-%d: unbalanced result: %d/%d", k, b.SideWeight(0), h.TotalNodeWeight())
		}
	}
}

// TestDeterministic ensures two runs from the same initial partition agree.
func TestDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 150, Nets: 160, Pins: 520, Seed: 5})
	rng := rand.New(rand.NewSource(11))
	bal := partition.Exact5050()
	sides := partition.RandomSides(h, bal, rng)
	run := func() float64 {
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			t.Fatalf("NewBisection: %v", err)
		}
		res, err := la.Partition(b, la.Config{K: 2, Balance: bal})
		if err != nil {
			t.Fatalf("Partition: %v", err)
		}
		return res.CutCost
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs differ: %g vs %g", a, b)
	}
}

// TestPartitionRejectsInexactDepth pins the lookahead bound: LA packs each
// gain vector into one float64 key in base 2·maxDeg+3, which is exact only
// while base^K ≤ 2^53. Partition accepts the deepest such K, rejects the
// next one with an error, and rejects an absurd K without sizing its
// vector arena from it.
func TestPartitionRejectsInexactDepth(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 120, Nets: 130, Pins: 420, Seed: 8})
	maxDeg := 0
	for u := 0; u < h.NumNodes(); u++ {
		maxDeg = max(maxDeg, h.Degree(u))
	}
	base := float64(2*maxDeg + 3)
	deepest := 0
	for p := base; p <= 1<<53; p *= base {
		deepest++
	}
	bal := partition.Exact5050()
	sides := partition.RandomSides(h, bal, rand.New(rand.NewSource(1)))
	run := func(k int) error {
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			t.Fatal(err)
		}
		_, err = la.Partition(b, la.Config{K: k, Balance: bal})
		return err
	}
	if err := run(deepest); err != nil {
		t.Fatalf("K=%d (deepest exact key at max degree %d): %v", deepest, maxDeg, err)
	}
	for _, k := range []int{deepest + 1, 34, 1 << 62} {
		if err := run(k); err == nil {
			t.Errorf("K=%d: accepted, want an error (max degree %d allows K ≤ %d)", k, maxDeg, deepest)
		}
	}
}
