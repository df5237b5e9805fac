package cluster

import (
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// TestCoarsenShrinksAndConserves: round coarsening reaches the target,
// every round shrinks the level, and each level boundary materializes a
// graph of the base's total weight whose nodes are the alive IDs in
// ascending order.
func TestCoarsenShrinksAndConserves(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 400, Nets: 440, Pins: 1500, Seed: 51})
	c, err := hypergraph.NewContracted(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	bounds, err := CoarsenRounds(c, 50, 3, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) < 1 {
		t.Fatal("no coarsening levels applied")
	}
	if c.AliveCount() > 2*50 {
		t.Errorf("coarse nodes = %d, want near 50", c.AliveCount())
	}
	// Walk back up from the coarsest level, one round at a time.
	sides := make([]uint8, h.NumNodes())
	coarser := 0
	for i := len(bounds) - 1; i >= 0; i-- {
		Unwind(c, bounds[i], sides)
		g, ids, err := c.CoarseGraph()
		if err != nil {
			t.Fatal(err)
		}
		if g.TotalNodeWeight() != h.TotalNodeWeight() {
			t.Errorf("level %d: weight %d, want %d", i+1, g.TotalNodeWeight(), h.TotalNodeWeight())
		}
		if g.NumNodes() <= coarser {
			t.Errorf("level %d: %d nodes, not above the coarser level's %d", i+1, g.NumNodes(), coarser)
		}
		coarser = g.NumNodes()
		for k, id := range ids {
			if !c.Alive(int(id)) || (k > 0 && id <= ids[k-1]) {
				t.Fatalf("level %d: node %d is base ID %d, want alive IDs ascending", i+1, k, id)
			}
		}
	}
	if h.NumNodes() <= coarser {
		t.Errorf("base graph %d nodes, not above level 1's %d", h.NumNodes(), coarser)
	}
}

// TestCoarseCutProjectsExactly: for a bisection of any level, unwinding to
// depth 0 with side inheritance yields a fine partition with exactly the
// level's cut cost (coarsening preserves the cut structure of
// cluster-respecting partitions).
func TestCoarseCutProjectsExactly(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 300, Nets: 330, Pins: 1100, Seed: 52})
	// Checking a level unwinds the view to depth 0, so each level gets a
	// fresh copy of the (deterministic) hierarchy.
	coarsen := func() (*hypergraph.Contracted, []int) {
		c, err := hypergraph.NewContracted(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := CoarsenRounds(c, 40, 4, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c, bounds
	}
	c, bounds := coarsen()
	c.Release()
	if len(bounds) == 0 {
		t.Fatal("no coarsening levels applied")
	}
	for i, depth := range bounds {
		c, _ := coarsen()
		sides := make([]uint8, h.NumNodes())
		Unwind(c, depth, sides)
		g, ids, err := c.CoarseGraph()
		if err != nil {
			t.Fatal(err)
		}
		coarse := make([]uint8, len(ids))
		for k, id := range ids {
			coarse[k] = uint8(k % 2)
			sides[id] = coarse[k]
		}
		cb, err := partition.NewBisection(g, coarse)
		if err != nil {
			t.Fatal(err)
		}
		Unwind(c, 0, sides)
		c.Release()
		fb, err := partition.NewBisection(h, sides)
		if err != nil {
			t.Fatal(err)
		}
		if cb.CutCost() != fb.CutCost() {
			t.Errorf("level %d: coarse cut %g, unwound fine cut %g", i+1, cb.CutCost(), fb.CutCost())
		}
	}
}

// TestClusteredSidesBalanced: the clustering pre-phase yields a feasible
// initial bisection.
func TestClusteredSidesBalanced(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 500, Nets: 550, Pins: 1900, Seed: 53})
	bal := partition.Exact5050()
	sides, err := ClusteredSides(h, bal, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		t.Fatal(err)
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
		t.Errorf("unbalanced: %d of %d", b.SideWeight(0), h.TotalNodeWeight())
	}
	// Clustered starts should beat random starts on average.
	rb, err := partition.NewBisection(h, partition.RandomSides(h, bal, newRand(1)))
	if err != nil {
		t.Fatal(err)
	}
	if b.CutCost() >= rb.CutCost() {
		t.Logf("note: clustered cut %g not below random cut %g on this instance", b.CutCost(), rb.CutCost())
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestClusteredSidesGolden pins the clustering pre-phase's exact output
// on three Table-1 clones at the parameters ClusteredStart uses (n/16+2
// clusters, 50/50 balance): the cut and the FNV-1a hash of the sides.
func TestClusteredSidesGolden(t *testing.T) {
	want := map[string]struct {
		cut  float64
		hash uint64
	}{
		"balu":   {133, 0x3e6841d19ab4a18d},
		"p1":     {128, 0xb5ce9e25ae8c54a9},
		"s13207": {3645, 0x111988a00ae026e4},
	}
	for _, spec := range gen.Table1() {
		w, ok := want[spec.Name]
		if !ok {
			continue
		}
		c, err := gen.SuiteCircuit(spec)
		if err != nil {
			t.Fatal(err)
		}
		sides, err := ClusteredSides(c.H, partition.Exact5050(), c.H.NumNodes()/16+2, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := partition.NewBisection(c.H, sides)
		if err != nil {
			t.Fatal(err)
		}
		hash := uint64(1469598103934665603)
		for _, s := range sides {
			hash ^= uint64(s)
			hash *= 1099511628211
		}
		if b.CutCost() != w.cut || hash != w.hash {
			t.Errorf("%s: cut %g hash %#x, want cut %g hash %#x", spec.Name, b.CutCost(), hash, w.cut, w.hash)
		}
	}
}
