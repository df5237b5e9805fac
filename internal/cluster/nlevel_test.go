package cluster

import (
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/hypergraph"
)

func TestCoarsenInPlaceReachesTarget(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 600, Nets: 660, Pins: 2300, Seed: 41})
	c, err := hypergraph.NewContracted(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := CoarsenInPlace(c, 40, 7, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if c.AliveCount() > 120 {
		t.Fatalf("coarsening stalled at %d alive nodes (target 40)", c.AliveCount())
	}
	if c.Depth() != 600-c.AliveCount() {
		t.Fatalf("Depth %d for %d dead nodes", c.Depth(), 600-c.AliveCount())
	}
	// Total alive weight is invariant under contraction.
	var w int64
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			w += c.NodeWeight(u)
		}
	}
	if w != h.TotalNodeWeight() {
		t.Fatalf("alive weight %d, want %d", w, h.TotalNodeWeight())
	}
	// Full unwind restores the original exactly (copy mode: view equals h).
	scratch := make([]int32, 0, 32)
	for c.Depth() > 0 {
		_, _ = c.Uncontract(scratch[:0])
	}
	for e := 0; e < h.NumNets(); e++ {
		got, want := c.Net(e), h.Net(e)
		if len(got) != len(want) {
			t.Fatalf("net %d size %d after unwind, want %d", e, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("net %d pin order diverged after unwind", e)
			}
		}
	}
}

func TestCoarsenInPlaceDeterministic(t *testing.T) {
	h := gen.MustGenerate(gen.Params{Nodes: 300, Nets: 330, Pins: 1100, Seed: 3})
	run := func() []hypergraph.Memento {
		c, err := hypergraph.NewContracted(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := CoarsenInPlace(c, 30, 11, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
		var ms []hypergraph.Memento
		scratch := make([]int32, 0, 32)
		for c.Depth() > 0 {
			m, _ := c.Uncontract(scratch[:0])
			ms = append(ms, m)
		}
		return ms
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs contracted %d vs %d pairs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("memento %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must give a different hierarchy (sanity that the
	// seed actually reaches the shuffle).
	c, err := hypergraph.NewContracted(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := CoarsenInPlace(c, 30, 12, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	diff := false
	scratch := make([]int32, 0, 32)
	for i := 0; c.Depth() > 0; i++ {
		m, _ := c.Uncontract(scratch[:0])
		if i < len(a) && m != a[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 11 and 12 produced identical hierarchies")
	}
}

func TestCoarsenInPlaceWeightCap(t *testing.T) {
	// A star circuit wants to collapse into one hub cluster; the cap must
	// keep every cluster at or below 4× the average target weight.
	b := hypergraph.NewBuilder()
	const n = 200
	rng := rand.New(rand.NewSource(5))
	for i := 1; i < n; i++ {
		if err := b.AddNet("", 1, 0, i, 1+rng.Intn(n-1)); err != nil {
			t.Fatal(err)
		}
	}
	h := b.MustBuild()
	c, err := hypergraph.NewContracted(h)
	if err != nil {
		t.Fatal(err)
	}
	const target = 10
	if err := CoarsenInPlace(c, target, 1, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	capW := 4 * h.TotalNodeWeight() / target
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) && c.NodeWeight(u) > capW {
			t.Fatalf("cluster %d weight %d exceeds cap %d", u, c.NodeWeight(u), capW)
		}
	}
}
