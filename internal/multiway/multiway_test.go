package multiway_test

import (
	"context"
	"math/rand"
	"testing"

	"prop/internal/core"
	"prop/internal/fm"
	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/multiway"
	"prop/internal/partition"
)

func fmCutter(_ context.Context, h *hypergraph.Hypergraph, bal partition.Balance, seed int64) ([]uint8, error) {
	b, err := partition.NewBisection(h, partition.RandomSides(h, bal, randFor(seed)))
	if err != nil {
		return nil, err
	}
	res, err := fm.Partition(b, fm.Config{Balance: bal, Selector: fm.Bucket})
	if err != nil {
		return nil, err
	}
	return res.Sides, nil
}

func propCutter(_ context.Context, h *hypergraph.Hypergraph, bal partition.Balance, seed int64) ([]uint8, error) {
	b, err := partition.NewBisection(h, partition.RandomSides(h, bal, randFor(seed)))
	if err != nil {
		return nil, err
	}
	res, err := core.Partition(b, core.DefaultConfig(bal))
	if err != nil {
		return nil, err
	}
	return res.Sides, nil
}

// TestRecursive4Way: every node assigned a part, parts near-equal, cut
// bookkeeping consistent.
func TestRecursive4Way(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 400, Nets: 440, Pins: 1500, Seed: 61})
	res, err := multiway.Partition(h, multiway.Config{
		K: 4, Balance: partition.Exact5050(), Cut: fmCutter, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := multiway.PartSizes(h, res.Parts, 4)
	for p, s := range sizes {
		if s < 80 || s > 120 {
			t.Errorf("part %d has weight %d, want ≈ 100", p, s)
		}
	}
	nets, cost := multiway.EvaluateKWay(h, res.Parts)
	if nets != res.CutNets || cost != res.CutCost {
		t.Errorf("reported (%d,%g), recount (%d,%g)", res.CutNets, res.CutCost, nets, cost)
	}
}

// TestRecursive8WayWithPROP drives the paper's §5 k-way extension with the
// PROP engine.
func TestRecursive8WayWithPROP(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 320, Nets: 360, Pins: 1200, Seed: 62})
	res, err := multiway.Partition(h, multiway.Config{
		K: 8, Balance: partition.Exact5050(), Cut: propCutter, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := multiway.PartSizes(h, res.Parts, 8)
	for p, s := range sizes {
		if s < 30 || s > 50 {
			t.Errorf("part %d has weight %d, want ≈ 40", p, s)
		}
	}
}

// TestRejectsBadK: K < 2 is an error; any other K, power of two or not,
// splits into K near-equal parts.
func TestRejectsBadK(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 64, Nets: 80, Pins: 260, Seed: 63})
	for _, k := range []int{0, 1} {
		_, err := multiway.Partition(h, multiway.Config{K: k, Balance: partition.Exact5050(), Cut: fmCutter})
		if err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
	for _, k := range []int{3, 6} {
		res, err := multiway.Partition(h, multiway.Config{K: k, Balance: partition.Exact5050(), Cut: fmCutter})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		// Each of the ≤ 3 bisection levels may miss its target by one cell.
		for p, s := range multiway.PartSizes(h, res.Parts, k) {
			if d := float64(s) - 64/float64(k); d < -3 || d > 3 {
				t.Errorf("K=%d part %d has weight %d, want %.1f ± 3", k, p, s, 64/float64(k))
			}
		}
	}
}

// TestInduceRoundTrip: inducing on all nodes reproduces the hypergraph.
func TestInduceRoundTrip(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 100, Nets: 120, Pins: 400, Seed: 64})
	nodes := make([]int, h.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	sub, back, err := multiway.Induce(h, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != h.NumNodes() || sub.NumNets() != h.NumNets() || sub.NumPins() != h.NumPins() {
		t.Errorf("induced (%d,%d,%d), want (%d,%d,%d)",
			sub.NumNodes(), sub.NumNets(), sub.NumPins(),
			h.NumNodes(), h.NumNets(), h.NumPins())
	}
	for i, u := range back {
		if i != u {
			t.Fatalf("identity induce remapped %d -> %d", u, i)
		}
	}
}

// TestInduceDropsOutsideNets: nets fully outside the subset vanish, nets
// partially inside shrink.
func TestInduceDropsOutsideNets(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.EnsureNodes(6)
	mustAdd := func(pins ...int) {
		if err := b.AddNet("", 1, pins...); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1, 2) // inside after induce on {0,1,2,3}
	mustAdd(2, 3)    // inside
	mustAdd(3, 4)    // shrinks to 1 pin -> dropped
	mustAdd(4, 5)    // fully outside -> dropped
	h := b.MustBuild()
	sub, _, err := multiway.Induce(h, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNets() != 2 {
		t.Errorf("induced nets = %d, want 2", sub.NumNets())
	}
}

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
