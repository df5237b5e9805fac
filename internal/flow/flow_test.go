package flow

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/obs"
	"prop/internal/partition"
)

func genCircuit(t *testing.T, nodes, nets, pins int, seed int64) *hypergraph.Hypergraph {
	t.Helper()
	h, err := gen.Generate(gen.Params{Nodes: nodes, Nets: nets, Pins: pins, Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return h
}

// TestRefineNeverWorsensAndStaysFeasible is the adoption-contract property:
// on random circuits from random feasible starts, the refined cut is never
// worse than the initial one, the reported cut matches a recount, and the
// result satisfies the balance window partition.Verify-style (Bounds widened
// by the maximum node weight).
func TestRefineNeverWorsensAndStaysFeasible(t *testing.T) {
	bal := partition.Exact5050()
	for seed := int64(1); seed <= 12; seed++ {
		h := genCircuit(t, 80, 100, 320, seed)
		initial := partition.RandomSides(h, bal, rand.New(rand.NewSource(seed)))
		b0, err := partition.NewBisection(h, initial)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Refine(h, initial, Config{Balance: bal})
		if err != nil {
			t.Fatalf("seed %d: refine: %v", seed, err)
		}
		if res.CutCost > b0.CutCost()+1e-9 {
			t.Fatalf("seed %d: refine worsened cut: %g -> %g", seed, b0.CutCost(), res.CutCost)
		}
		br, err := partition.NewBisection(h, res.Sides)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(br.CutCost()-res.CutCost) > 1e-6 || br.CutNets() != res.CutNets {
			t.Fatalf("seed %d: reported cut (%g, %d) != recount (%g, %d)",
				seed, res.CutCost, res.CutNets, br.CutCost(), br.CutNets())
		}
		if !bal.FeasibleWithSlack(br.SideWeight(0), h.TotalNodeWeight(), br.MaxNodeWeight()) {
			t.Fatalf("seed %d: refined sides violate balance: side0 %d of %d",
				seed, br.SideWeight(0), h.TotalNodeWeight())
		}
	}
}

// TestFlowValueEqualsInducedCut checks the Lawler/Dinic invariant: the
// max-flow value equals the modeled-net cut weight induced by the returned
// minimum-cut assignment, for every balance target that admits one.
func TestFlowValueEqualsInducedCut(t *testing.T) {
	bal := partition.Exact5050()
	for seed := int64(1); seed <= 10; seed++ {
		h := genCircuit(t, 60, 80, 250, seed)
		initial := partition.RandomSides(h, bal, rand.New(rand.NewSource(seed^0x5a)))
		b, err := partition.NewBisection(h, initial)
		if err != nil {
			t.Fatal(err)
		}
		c := extractCorridor(b, 3, h.TotalNodeWeight()/4)
		if len(c.nodes) == 0 {
			continue
		}
		net := buildNetwork(b, c)
		fv := net.maxflow()
		moved, ok := net.minCutMoves(b, c, 0, h.TotalNodeWeight())
		if !ok {
			t.Fatalf("seed %d: no cut candidate with unconstrained bounds", seed)
		}
		sides := b.Sides()
		for _, u := range moved {
			sides[u] ^= 1
		}
		induced := modeledCut(h, net, c, sides)
		if flowCost := float64(fv) / net.scale; math.Abs(induced-flowCost) > 1e-9 {
			t.Fatalf("seed %d: max-flow value %g != induced modeled cut %g", seed, flowCost, induced)
		}
	}
}

// modeledCut recomputes the cut weight of the network's modeled nets under
// a full side assignment (exterior pins included via the net's pins).
func modeledCut(h *hypergraph.Hypergraph, net *network, c corridor, sides []uint8) float64 {
	var cut float64
	for _, m := range net.nets {
		var on [2]bool
		for _, v := range h.Net(int(m.e)) {
			on[sides[v]] = true
		}
		if on[0] && on[1] {
			cut += h.NetCost(int(m.e))
		}
	}
	return cut
}

// TestBruteForceMinCut cross-checks the whole corridor→Lawler→Dinic→
// selection pipeline against exhaustive enumeration on circuits whose
// corridor has ≤ 12 nodes: the adopted assignment must reach the true
// minimum total cut over all 2^|corridor| exterior-fixed assignments.
func TestBruteForceMinCut(t *testing.T) {
	bal := partition.Exact5050()
	checked := 0
	for seed := int64(1); seed <= 20; seed++ {
		h := genCircuit(t, 12, 16, 36, seed)
		initial := partition.RandomSides(h, bal, rand.New(rand.NewSource(seed*31)))
		b, err := partition.NewBisection(h, initial)
		if err != nil {
			t.Fatal(err)
		}
		c := extractCorridor(b, 6, h.TotalNodeWeight())
		if len(c.nodes) == 0 || len(c.nodes) > 12 {
			continue
		}
		checked++
		net := buildNetwork(b, c)
		net.maxflow()
		moved, ok := net.minCutMoves(b, c, 0, h.TotalNodeWeight())
		if !ok {
			t.Fatalf("seed %d: no cut candidate with unconstrained bounds", seed)
		}
		sides := b.Sides()
		for _, u := range moved {
			sides[u] ^= 1
		}
		got := recount(t, h, sides)
		want := bruteForceMin(t, h, b.Sides(), c)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: flow min cut %g, brute force %g (corridor %d)",
				seed, got, want, len(c.nodes))
		}
	}
	if checked < 5 {
		t.Fatalf("only %d brute-force instances checked; enlarge the seed pool", checked)
	}
}

func recount(t *testing.T, h *hypergraph.Hypergraph, sides []uint8) float64 {
	t.Helper()
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		t.Fatal(err)
	}
	return b.CutCost()
}

func bruteForceMin(t *testing.T, h *hypergraph.Hypergraph, base []uint8, c corridor) float64 {
	t.Helper()
	best := math.Inf(1)
	sides := make([]uint8, len(base))
	for mask := 0; mask < 1<<len(c.nodes); mask++ {
		copy(sides, base)
		for i, u := range c.nodes {
			sides[u] = uint8(mask >> i & 1)
		}
		if cost := recount(t, h, sides); cost < best {
			best = cost
		}
	}
	return best
}

// TestFractionalCostsScale exercises the fixed-point capacity path: a
// hand-built corridor with fractional net costs must still satisfy the
// flow == induced-cut invariant and never worsen the cut.
func TestFractionalCostsScale(t *testing.T) {
	bld := hypergraph.NewBuilder()
	bld.EnsureNodes(8)
	// Two clusters 0-3 and 4-7 with fractional-cost nets crossing them.
	nets := []struct {
		cost float64
		pins []int
	}{
		{0.5, []int{0, 1, 2}}, {1.25, []int{1, 3}}, {0.75, []int{4, 5}},
		{1.5, []int{5, 6, 7}}, {0.25, []int{2, 4}}, {2.5, []int{3, 5}},
		{0.5, []int{0, 7}}, {1.0, []int{2, 3, 4}},
	}
	for _, n := range nets {
		if err := bld.AddNet("", n.cost, n.pins...); err != nil {
			t.Fatal(err)
		}
	}
	h := bld.MustBuild()
	bal := partition.Exact5050()
	initial := []uint8{0, 1, 0, 1, 0, 1, 0, 1} // deliberately bad split
	b0, err := partition.NewBisection(h, initial)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Refine(h, initial, Config{Balance: bal})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutCost > b0.CutCost()+1e-9 {
		t.Fatalf("fractional costs: cut worsened %g -> %g", b0.CutCost(), res.CutCost)
	}
	if got := recount(t, h, res.Sides); math.Abs(got-res.CutCost) > 1e-6 {
		t.Fatalf("fractional costs: reported %g, recount %g", res.CutCost, got)
	}
}

// TestRefineDeterministic pins the purity contract: repeated runs — traced
// or not — return identical sides and cuts.
func TestRefineDeterministic(t *testing.T) {
	bal := partition.Exact5050()
	h := genCircuit(t, 120, 150, 480, 9)
	initial := partition.RandomSides(h, bal, rand.New(rand.NewSource(99)))
	ref, err := Refine(h, initial, Config{Balance: bal})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.New(&buf, obs.LevelPass)
	for i := 0; i < 3; i++ {
		res, err := Refine(h, initial, Config{Balance: bal, Tracer: tr, TraceRun: i})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutCost != ref.CutCost || res.CutNets != ref.CutNets {
			t.Fatalf("run %d: cut (%g, %d) != reference (%g, %d)",
				i, res.CutCost, res.CutNets, ref.CutCost, ref.CutNets)
		}
		if !bytes.Equal(res.Sides, ref.Sides) {
			t.Fatalf("run %d: sides differ from reference", i)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("traced runs emitted no flow events")
	}
}

// TestRefineRejectsBadInput covers the error paths.
func TestRefineRejectsBadInput(t *testing.T) {
	h := genCircuit(t, 8, 8, 20, 1)
	if _, err := Refine(h, make([]uint8, 3), Config{Balance: partition.Exact5050()}); err == nil {
		t.Fatal("short sides slice accepted")
	}
	if _, err := Refine(h, make([]uint8, 8), Config{Balance: partition.Balance{R1: 0.9, R2: 0.1}}); err == nil {
		t.Fatal("invalid balance accepted")
	}
}
