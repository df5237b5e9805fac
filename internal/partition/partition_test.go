package partition_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

func tinyH(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.EnsureNodes(6)
	for _, net := range [][]int{{0, 1}, {1, 2, 3}, {3, 4}, {4, 5}, {0, 5}, {2, 5}} {
		if err := b.AddNet("", 1, net...); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// TestMoveGainMatchesImmediateDelta: the deterministic gain (Eqn. 1) must
// equal the realized cut decrease of the move, for random states and moves.
func TestMoveGainMatchesImmediateDelta(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 80, Nets: 100, Pins: 330, Seed: 12})
	f := func(seed int64, moves []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sides := partition.RandomSides(h, partition.Exact5050(), rng)
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			return false
		}
		for _, mv := range moves {
			u := int(mv) % h.NumNodes()
			want := b.Gain(u)
			got := b.Move(u)
			if got != want {
				t.Logf("gain %g, realized %g", want, got)
				return false
			}
		}
		return b.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBisectionIncrementalVsRecount drives long random move sequences and
// verifies the incremental cut bookkeeping stays exact.
func TestBisectionIncrementalVsRecount(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 200, Nets: 240, Pins: 800, Seed: 99})
	rng := rand.New(rand.NewSource(1))
	sides := partition.RandomSides(h, partition.Exact5050(), rng)
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		b.Move(rng.Intn(h.NumNodes()))
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	cost, nets := b.RecountCut()
	if cost != b.CutCost() || nets != b.CutNets() {
		t.Fatalf("recount (%g,%d) != tracked (%g,%d)", cost, nets, b.CutCost(), b.CutNets())
	}
}

// TestDoubleMoveIsIdentity: moving a node twice restores the exact state.
func TestDoubleMoveIsIdentity(t *testing.T) {
	h := tinyH(t)
	b, err := partition.NewBisection(h, []uint8{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cost, nets := b.CutCost(), b.CutNets()
	g1 := b.Move(2)
	g2 := b.Move(2)
	if g1 != -g2 {
		t.Errorf("move gains %g and %g, want negations", g1, g2)
	}
	if b.CutCost() != cost || b.CutNets() != nets {
		t.Errorf("state not restored: (%g,%d) vs (%g,%d)", b.CutCost(), b.CutNets(), cost, nets)
	}
	if b.Side(2) != 0 {
		t.Errorf("node 2 ended on side %d", b.Side(2))
	}
}

// TestBalanceBounds exercises Bounds on the criteria used in the paper.
func TestBalanceBounds(t *testing.T) {
	cases := []struct {
		bal    partition.Balance
		w      int64
		lo, hi int64
	}{
		{partition.Exact5050(), 100, 50, 50},
		{partition.Exact5050(), 101, 50, 51},
		{partition.B4555(), 100, 45, 55},
		{partition.B4555(), 10, 5, 5}, // 4.5..5.5 -> 5..5
		// Side 0's window need not be symmetric: a 2+1 split of k = 3.
		{partition.Balance{R1: 0.6, R2: 0.7333}, 100, 60, 73},
		// No integer in 66.67..66.67: relax to ⌊r1·w⌋..⌈r2·w⌉.
		{partition.Balance{R1: 2.0 / 3, R2: 2.0 / 3}, 100, 66, 67},
	}
	for _, c := range cases {
		lo, hi := c.bal.Bounds(c.w)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%v.Bounds(%d) = (%d,%d), want (%d,%d)", c.bal, c.w, lo, hi, c.lo, c.hi)
		}
	}
}

// TestBalanceValidate rejects windows outside (0, 1) or with r1 > r2, and
// accepts asymmetric side-0 windows.
func TestBalanceValidate(t *testing.T) {
	if err := (partition.Balance{0.6, 0.4}).Validate(); err == nil {
		t.Error("accepted r1 > r2")
	}
	if err := (partition.Balance{0, 1}).Validate(); err == nil {
		t.Error("accepted degenerate bounds")
	}
	if err := (partition.Balance{0.6, 1.1}).Validate(); err == nil {
		t.Error("accepted r2 > 1")
	}
	for _, b := range []partition.Balance{partition.B4555(), {0.3, 0.6}} {
		if err := b.Validate(); err != nil {
			t.Errorf("rejected %v: %v", b, err)
		}
	}
}

// TestRandomSidesBalanced: generated initial partitions satisfy the
// criterion for many seeds, symmetric or not.
func TestRandomSidesBalanced(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 101, Nets: 120, Pins: 400, Seed: 77})
	for _, bal := range []partition.Balance{partition.Exact5050(), {R1: 0.6, R2: 0.7}} {
		for seed := int64(0); seed < 40; seed++ {
			sides := partition.RandomSides(h, bal, rand.New(rand.NewSource(seed)))
			b, err := partition.NewBisection(h, sides)
			if err != nil {
				t.Fatal(err)
			}
			if !bal.Feasible(b.SideWeight(0), h.TotalNodeWeight()) {
				t.Fatalf("%v seed %d: side-0 weight %d of %d infeasible", bal, seed, b.SideWeight(0), h.TotalNodeWeight())
			}
		}
	}
}

// TestAsymmetricWindowMoves: with side 0's window at 60-70%, moves and
// repair judge side 0 alone. Side 1 is heavy exactly when side 0 is below
// the window, even when side 0 outweighs side 1.
func TestAsymmetricWindowMoves(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 100, Nets: 120, Pins: 400, Seed: 78})
	bal := partition.Balance{R1: 0.6, R2: 0.7}
	sides := make([]uint8, 100)
	for u := 58; u < 100; u++ {
		sides[u] = 1 // side 0 holds 58, one below 60 − 1
	}
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CanMove(99, bal) || b.CanMove(0, bal) {
		t.Errorf("at 58/42: CanMove(side 1) %v, CanMove(side 0) %v; want true, false", b.CanMove(99, bal), b.CanMove(0, bal))
	}
	if !b.CanMoveFrom(1, bal) || b.CanMoveFrom(0, bal) {
		t.Errorf("at 58/42: CanMoveFrom(1) %v, CanMoveFrom(0) %v; want true, false", b.CanMoveFrom(1, bal), b.CanMoveFrom(0, bal))
	}
	if err := partition.RepairBalance(b, bal); err != nil {
		t.Fatal(err)
	}
	if w := b.SideWeight(0); w != 59 {
		t.Errorf("repair left side 0 at %d, want 59 (the window's lower edge less one cell)", w)
	}
}

// TestNewBisectionRejectsBadInput covers the error paths.
func TestNewBisectionRejectsBadInput(t *testing.T) {
	h := tinyH(t)
	if _, err := partition.NewBisection(h, []uint8{0, 1}); err == nil {
		t.Error("accepted short side slice")
	}
	if _, err := partition.NewBisection(h, []uint8{0, 0, 0, 1, 1, 2}); err == nil {
		t.Error("accepted side value 2")
	}
}

// TestSweepCutErrors: wrong order length and infeasible orders error out.
func TestSweepCutErrors(t *testing.T) {
	h := tinyH(t)
	if _, _, err := partition.SweepCut(h, []int{0, 1}, partition.Exact5050()); err == nil {
		t.Error("accepted short order")
	}
	if _, _, err := partition.SweepCut(h, []int{0, 1, 2, 3, 4, 5}, partition.Balance{R1: 0.6, R2: 0.3}); err == nil {
		t.Error("accepted invalid balance")
	}
}
