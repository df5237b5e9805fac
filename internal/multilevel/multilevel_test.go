package multilevel

import (
	"math/rand"
	"testing"

	"prop/internal/core"
	"prop/internal/gen"
	"prop/internal/partition"
)

// TestVCycleContract: the V-cycle produces a feasible partition with exact
// bookkeeping and builds a real hierarchy.
func TestVCycleContract(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 800, Nets: 860, Pins: 2950, Seed: 95})
	bal := partition.Exact5050()
	res, err := Partition(h, Config{Balance: bal, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels < 2 {
		t.Errorf("only %d coarsening levels for 800 nodes", res.Levels)
	}
	b, err := partition.NewBisection(h, res.Sides)
	if err != nil {
		t.Fatal(err)
	}
	if b.CutCost() != res.CutCost || b.CutNets() != res.CutNets {
		t.Errorf("reported (%g,%d), recount (%g,%d)", res.CutCost, res.CutNets, b.CutCost(), b.CutNets())
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
		t.Errorf("unbalanced: %d of %d", b.SideWeight(0), h.TotalNodeWeight())
	}
}

// TestVCycleBeatsSingleRun: the paper's conclusion claim in aggregate —
// multilevel PROP should be at least as good as one flat PROP run from a
// random start.
func TestVCycleBeatsSingleRun(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 1000, Nets: 1080, Pins: 3700, Seed: 96})
	bal := partition.Exact5050()
	ml, err := Partition(h, Config{Balance: bal, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b, err := partition.NewBisection(h, partition.RandomSides(h, bal, rng))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := core.Partition(b, core.DefaultConfig(bal))
	if err != nil {
		t.Fatal(err)
	}
	if ml.CutCost > flat.CutCost {
		t.Errorf("multilevel (%g) worse than a single flat PROP run (%g)", ml.CutCost, flat.CutCost)
	}
}

// TestFMRefinerWorks: the alternative engine also completes feasibly.
func TestFMRefinerWorks(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 500, Nets: 540, Pins: 1850, Seed: 97})
	bal := partition.B4555()
	res, err := Partition(h, Config{Balance: bal, Refine: FMRefiner(), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition.NewBisection(h, res.Sides)
	if err != nil {
		t.Fatal(err)
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
		t.Errorf("unbalanced: %d of %d", b.SideWeight(0), h.TotalNodeWeight())
	}
}

// TestDeterministic: fixed seed, fixed result.
func TestDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 400, Nets: 430, Pins: 1500, Seed: 99})
	bal := partition.Exact5050()
	a, err := Partition(h, Config{Balance: bal, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(h, Config{Balance: bal, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.CutCost != b.CutCost {
		t.Fatalf("runs differ: %g vs %g", a.CutCost, b.CutCost)
	}
}
