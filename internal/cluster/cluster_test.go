package cluster

import (
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
	c, err := hypergraph.NewContracted(h)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := CoarsenRounds(c, 50, 3, nil, 0)
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
		c, err := hypergraph.NewContracted(h)
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := CoarsenRounds(c, 40, 4, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c, bounds
	}
	_, bounds := coarsen()
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
		fb, err := partition.NewBisection(h, sides)
		if err != nil {
			t.Fatal(err)
		}
		if cb.CutCost() != fb.CutCost() {
			t.Errorf("level %d: coarse cut %g, unwound fine cut %g", i+1, cb.CutCost(), fb.CutCost())
		}
	}
}
