package window

import (
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// TestMaxAttractionOrderCoversAll: the ordering is a permutation and
// clusters stay contiguous on an obvious two-cluster instance.
func TestMaxAttractionOrderCoversAll(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.EnsureNodes(16)
	for c := 0; c < 2; c++ {
		base := c * 8
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				if err := b.AddNet("", 1, base+i, base+j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := b.AddNet("", 1, 3, 11); err != nil {
		t.Fatal(err)
	}
	h := b.MustBuild()
	order, err := maxAttractionOrder(hypergraph.CliqueExpand(h))
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 16)
	for _, u := range order {
		if seen[u] {
			t.Fatalf("node %d appears twice in %v", u, order)
		}
		seen[u] = true
	}
	// The first 8 nodes of the ordering must all come from one clique.
	first := order[0] / 8
	for _, u := range order[:8] {
		if u/8 != first {
			t.Fatalf("ordering interleaves cliques: %v", order)
		}
	}
}

// TestPartitionTwoClusters: WINDOW must find the single bridge cut.
func TestPartitionTwoClusters(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.EnsureNodes(20)
	for c := 0; c < 2; c++ {
		base := c * 10
		for i := 0; i < 10; i++ {
			if err := b.AddNet("", 1, base+i, base+(i+1)%10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.AddNet("", 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	h := b.MustBuild()
	res, err := Partition(h, Config{Balance: partition.Exact5050(), Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutCost != 1 {
		t.Errorf("cut = %g, want 1", res.CutCost)
	}
}

// TestPartitionGenerated: contract checks on a realistic circuit, and the
// FM phase must not be worse than the raw ordering sweep.
func TestPartitionGenerated(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 500, Nets: 550, Pins: 1900, Seed: 44})
	bal := partition.Exact5050()
	res, err := Partition(h, Config{Balance: bal, Runs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutCost > res.OrderingCut {
		t.Errorf("FM phase worsened the sweep cut: %g -> %g", res.OrderingCut, res.CutCost)
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
}

// TestOrderingDeterministic: the max-attraction ordering is a pure
// function of the graph.
func TestOrderingDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 300, Nets: 330, Pins: 1100, Seed: 46})
	g := hypergraph.CliqueExpand(h)
	a, err := maxAttractionOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := maxAttractionOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("orderings differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestPerturbPreservesCounts: the FM-run diversifier swaps sides in pairs.
func TestPerturbPreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sides := make([]uint8, 100)
	for i := 50; i < 100; i++ {
		sides[i] = 1
	}
	perturb(sides, 0.2, rng)
	var c0 int
	for _, s := range sides {
		if s == 0 {
			c0++
		}
	}
	if c0 != 50 {
		t.Fatalf("side-0 count changed to %d", c0)
	}
}
