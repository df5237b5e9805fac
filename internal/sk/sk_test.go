package sk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// TestPairGainMatchesRealizedDelta: the corrected pair-gain estimate must
// equal the realized cut decrease for every candidate pair, including
// pairs sharing multi-pin nets (the SK correction the graph model gets
// wrong). Property-checked over random circuits and states.
func TestPairGainMatchesRealizedDelta(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 60, Nets: 90, Pins: 290, Seed: 75})
	f := func(seed int64, ai, bi uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sides := partition.RandomSides(h, partition.Exact5050(), rng)
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			return false
		}
		e := &engine{b: b,
			locked: make([]bool, h.NumNodes()), gain: make([]float64, h.NumNodes()),
			scratch: make([]bool, h.NumNodes())}
		for u := 0; u < h.NumNodes(); u++ {
			e.gain[u] = b.Gain(u)
		}
		// Pick a pair on opposite sides from the fuzz input.
		a := int(ai) % h.NumNodes()
		bb := int(bi) % h.NumNodes()
		if b.Side(a) == b.Side(bb) {
			return true // skip same-side draws
		}
		want := e.pairGain(a, bb)
		got := b.Move(a) + b.Move(bb)
		if d := got - want; d > 1e-9 || d < -1e-9 {
			t.Logf("pair (%d,%d): estimated %g, realized %g", a, bb, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedNetCorrection: a 2-pin net {a, b} across the cut must yield a
// swap gain of 0, not +2 (the error the correction removes).
func TestSharedNetCorrection(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.EnsureNodes(4)
	if err := b.AddNet("", 1, 0, 2); err != nil { // the shared cut net
		t.Fatal(err)
	}
	if err := b.AddNet("", 1, 1, 3); err != nil {
		t.Fatal(err)
	}
	h := b.MustBuild()
	bis, err := partition.NewBisection(h, []uint8{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{b: bis,
		locked: make([]bool, 4), gain: make([]float64, 4), scratch: make([]bool, 4)}
	for u := 0; u < 4; u++ {
		e.gain[u] = bis.Gain(u)
	}
	// Naive gain(0)+gain(2) = 1+1 = 2; the swap keeps the net cut.
	if g := e.pairGain(0, 2); g != 0 {
		t.Errorf("pairGain(0,2) = %g, want 0", g)
	}
}

// TestPartitionContract: improvement, preserved sizes, exact bookkeeping.
func TestPartitionContract(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 250, Nets: 280, Pins: 960, Seed: 76})
	rng := rand.New(rand.NewSource(3))
	initial := partition.RandomSides(h, partition.Exact5050(), rng)
	b0, err := partition.NewBisection(h, initial)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(h, initial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutCost > b0.CutCost() {
		t.Errorf("cut worsened: %g -> %g", b0.CutCost(), res.CutCost)
	}
	var before, after int
	for i := range initial {
		if initial[i] == 0 {
			before++
		}
		if res.Sides[i] == 0 {
			after++
		}
	}
	if before != after {
		t.Errorf("side sizes changed: %d -> %d", before, after)
	}
	bb, err := partition.NewBisection(h, res.Sides)
	if err != nil {
		t.Fatal(err)
	}
	if bb.CutCost() != res.CutCost {
		t.Errorf("reported %g, recount %g", res.CutCost, bb.CutCost())
	}
	if res.Swaps == 0 {
		t.Error("no swaps from a random start")
	}
}

// TestRejectsShortSides covers the error path.
func TestRejectsShortSides(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 50, Nets: 60, Pins: 200, Seed: 77})
	if _, err := Partition(h, make([]uint8, 3), Config{}); err == nil {
		t.Error("accepted short sides")
	}
}
