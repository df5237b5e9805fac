package anneal

import (
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// TestAnnealTwoClusters: SA finds the single-bridge cut of an easy
// two-cluster instance.
func TestAnnealTwoClusters(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.EnsureNodes(20)
	for c := 0; c < 2; c++ {
		base := c * 10
		for i := 0; i < 10; i++ {
			if err := b.AddNet("", 1, base+i, base+(i+1)%10); err != nil {
				t.Fatal(err)
			}
			if err := b.AddNet("", 1, base+i, base+(i+3)%10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.AddNet("", 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	h := b.MustBuild()
	bal := partition.Exact5050()
	rng := rand.New(rand.NewSource(4))
	res, err := Partition(h, partition.RandomSides(h, bal, rng), Config{Balance: bal, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutCost != 1 {
		t.Errorf("cut = %g, want 1", res.CutCost)
	}
}

// TestAnnealContract: balance respected, bookkeeping exact, improvement
// over the random start on a realistic circuit.
func TestAnnealContract(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 300, Nets: 330, Pins: 1100, Seed: 71})
	bal := partition.Exact5050()
	rng := rand.New(rand.NewSource(5))
	initial := partition.RandomSides(h, bal, rng)
	b0, err := partition.NewBisection(h, initial)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(h, initial, Config{Balance: bal, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutCost >= b0.CutCost() {
		t.Errorf("no improvement: %g -> %g", b0.CutCost(), res.CutCost)
	}
	bb, err := partition.NewBisection(h, res.Sides)
	if err != nil {
		t.Fatal(err)
	}
	if bb.CutCost() != res.CutCost || bb.CutNets() != res.CutNets {
		t.Errorf("reported (%g,%d), recount (%g,%d)", res.CutCost, res.CutNets, bb.CutCost(), bb.CutNets())
	}
	if !bal.FeasibleWithSlack(bb.SideWeight(0), h.TotalNodeWeight(), bb.MaxNodeWeight()) {
		t.Errorf("unbalanced: %d of %d", bb.SideWeight(0), h.TotalNodeWeight())
	}
	if res.Temperatures == 0 || res.Accepted == 0 {
		t.Errorf("schedule did not run: %+v", res)
	}
}

// TestAnnealDeterministic: fixed seed gives identical outcomes.
func TestAnnealDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 150, Nets: 170, Pins: 580, Seed: 72})
	bal := partition.Exact5050()
	initial := partition.RandomSides(h, bal, rand.New(rand.NewSource(6)))
	run := func() float64 {
		res, err := Partition(h, initial, Config{Balance: bal, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return res.CutCost
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %g vs %g", a, b)
	}
}

// TestAnnealRejectsBadConfig covers error paths.
func TestAnnealRejectsBadConfig(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 60, Nets: 70, Pins: 240, Seed: 73})
	bal := partition.Exact5050()
	initial := partition.RandomSides(h, bal, rand.New(rand.NewSource(1)))
	if _, err := Partition(h, initial[:10], Config{Balance: bal}); err == nil {
		t.Error("accepted short sides")
	}
	if _, err := Partition(h, initial, Config{Balance: partition.Balance{R1: 0.6, R2: 0.4}}); err == nil {
		t.Error("accepted invalid balance")
	}
}
