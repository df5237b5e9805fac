package fm_test

import (
	"math/rand"
	"testing"

	"prop/internal/fm"
	"prop/internal/gen"
	"prop/internal/partition"
)

func runFM(t *testing.T, sel fm.Selector, seed int64) (initial float64, res fm.Result, b *partition.Bisection) {
	t.Helper()
	h := gen.MustGenerate(gen.Params{Nodes: 400, Nets: 440, Pins: 1500, Seed: 31})
	rng := rand.New(rand.NewSource(seed))
	bal := partition.Exact5050()
	b, err := partition.NewBisection(h, partition.RandomSides(h, bal, rng))
	if err != nil {
		t.Fatal(err)
	}
	initial = b.CutCost()
	res, err = fm.Partition(b, fm.Config{Balance: bal, Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	return initial, res, b
}

// TestPartitionImproves checks the basic contract for both selectors:
// strict improvement on a random start, exact bookkeeping, balance kept.
func TestPartitionImproves(t *testing.T) {
	for _, sel := range []fm.Selector{fm.Bucket, fm.Tree} {
		initial, res, b := runFM(t, sel, 7)
		if res.CutCost >= initial {
			t.Errorf("%v: cut %g not improved from %g", sel, res.CutCost, initial)
		}
		if err := b.Verify(); err != nil {
			t.Errorf("%v: %v", sel, err)
		}
		bal := partition.Exact5050()
		if !bal.FeasibleWithSlack(b.SideWeight(0), b.H.TotalNodeWeight(), b.MaxNodeWeight()) {
			t.Errorf("%v: unbalanced: %d of %d", sel, b.SideWeight(0), b.H.TotalNodeWeight())
		}
		if res.Passes < 1 {
			t.Errorf("%v: %d passes", sel, res.Passes)
		}
	}
}

// TestLocalMinimum: after FM converges, no single feasible move improves
// the cut (the defining property of the FM local optimum).
func TestLocalMinimum(t *testing.T) {
	_, _, b := runFM(t, fm.Bucket, 13)
	bal := partition.Exact5050()
	for u := 0; u < b.H.NumNodes(); u++ {
		if b.CanMove(u, bal) && b.Gain(u) > 0 {
			t.Fatalf("node %d has positive gain %g after convergence", u, b.Gain(u))
		}
	}
}

// TestBucketRejectsWeightedNets: FM-bucket is documented to require unit
// net costs; FM-tree must accept them.
func TestBucketRejectsWeightedNets(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 60, Nets: 70, Pins: 240, Seed: 2})
	costs := make([]float64, h.NumNets())
	for i := range costs {
		costs[i] = 1 + float64(i%3)
	}
	hw, err := h.WithNetCosts(costs)
	if err != nil {
		t.Fatal(err)
	}
	bal := partition.Exact5050()
	rng := rand.New(rand.NewSource(5))
	b, err := partition.NewBisection(hw, partition.RandomSides(hw, bal, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Partition(b, fm.Config{Balance: bal, Selector: fm.Bucket}); err == nil {
		t.Error("bucket selector accepted weighted nets")
	}
	if _, err := fm.Partition(b, fm.Config{Balance: bal, Selector: fm.Tree}); err != nil {
		t.Errorf("tree selector rejected weighted nets: %v", err)
	}
}

// TestDeterministic: identical inputs give identical outputs.
func TestDeterministic(t *testing.T) {
	_, r1, _ := runFM(t, fm.Bucket, 11)
	_, r2, _ := runFM(t, fm.Bucket, 11)
	if r1.CutCost != r2.CutCost || r1.Moves != r2.Moves {
		t.Fatalf("runs differ: %+v vs %+v", r1, r2)
	}
}

// TestBalance4555 runs under the Table-3 criterion.
func TestBalance4555(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 300, Nets: 330, Pins: 1100, Seed: 14})
	bal := partition.B4555()
	rng := rand.New(rand.NewSource(15))
	b, err := partition.NewBisection(h, partition.RandomSides(h, bal, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Partition(b, fm.Config{Balance: bal, Selector: fm.Bucket}); err != nil {
		t.Fatal(err)
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), h.TotalNodeWeight(), b.MaxNodeWeight()) {
		t.Errorf("unbalanced: %d of %d", b.SideWeight(0), h.TotalNodeWeight())
	}
}
