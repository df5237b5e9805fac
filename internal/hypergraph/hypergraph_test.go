package hypergraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *Hypergraph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("a", 1)
	b.AddNode("b", 2)
	b.AddNode("c", 1)
	b.AddNode("d", 3)
	if err := b.AddNet("n0", 1, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNet("n1", 2.5, 2, 3); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild()
}

// TestBuilderBasics: counts, names, weights, costs, dual adjacency.
func TestBuilderBasics(t *testing.T) {
	h := buildSmall(t)
	if h.NumNodes() != 4 || h.NumNets() != 2 || h.NumPins() != 5 {
		t.Fatalf("shape (%d,%d,%d)", h.NumNodes(), h.NumNets(), h.NumPins())
	}
	if h.NodeName(1) != "b" || h.NodeWeight(1) != 2 || h.NodeWeight(3) != 3 {
		t.Error("node attributes lost")
	}
	if h.NetName(1) != "n1" || h.NetCost(1) != 2.5 || h.UnitCost() {
		t.Error("net attributes lost")
	}
	if h.TotalNodeWeight() != 7 {
		t.Errorf("total weight %d, want 7", h.TotalNodeWeight())
	}
	if got := h.NetsOf(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("NetsOf(2) = %v, want [0 1]", got)
	}
}

// TestBuilderDedupAndDrop: duplicate pins merge; sub-2-pin nets drop.
func TestBuilderDedupAndDrop(t *testing.T) {
	b := NewBuilder()
	b.EnsureNodes(3)
	if err := b.AddNet("", 1, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddNet("", 1, 2, 2); err != nil { // collapses to 1 pin
		t.Fatal(err)
	}
	if b.DroppedNets() != 1 {
		t.Errorf("dropped %d, want 1", b.DroppedNets())
	}
	h := b.MustBuild()
	if h.NumNets() != 1 || h.NetSize(0) != 2 {
		t.Errorf("net set %d/%d", h.NumNets(), h.NetSize(0))
	}
}

// TestBuilderErrors: invalid costs and pins rejected.
func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if err := b.AddNet("", 0, 0, 1); err == nil {
		t.Error("accepted zero cost")
	}
	if err := b.AddNet("", 1, -1, 2); err == nil {
		t.Error("accepted negative pin")
	}
}

// TestNeighbors: distinct, excludes self, scratch restored.
func TestNeighbors(t *testing.T) {
	h := buildSmall(t)
	scratch := make([]bool, h.NumNodes())
	nbrs := h.Neighbors(2, nil, scratch)
	if len(nbrs) != 3 {
		t.Fatalf("Neighbors(2) = %v, want 3 distinct", nbrs)
	}
	for _, v := range nbrs {
		if v == 2 {
			t.Error("self in neighbors")
		}
	}
	for i, s := range scratch {
		if s {
			t.Fatalf("scratch[%d] not restored", i)
		}
	}
}

// TestCliqueExpand: weights follow c/(q−1) and merge parallel edges.
func TestCliqueExpand(t *testing.T) {
	h := buildSmall(t)
	g := CliqueExpand(h)
	// n0 (3 pins, cost 1): each pair weight 0.5. n1 (2 pins, cost 2.5):
	// edge (2,3) weight 2.5.
	w := func(u, v int) float64 {
		for _, e := range g.Adj[u] {
			if e.To == v {
				return e.Weight
			}
		}
		return 0
	}
	if w(0, 1) != 0.5 || w(0, 2) != 0.5 {
		t.Errorf("n0 pair weights %g,%g, want 0.5", w(0, 1), w(0, 2))
	}
	if w(2, 3) != 2.5 {
		t.Errorf("w(2,3) = %g, want 2.5", w(2, 3))
	}
	if w(2, 3) != w(3, 2) {
		t.Error("asymmetric expansion")
	}
}

// TestCliqueCutApproximatesHyperCut: for 2-pin nets the graph cut equals
// the hypergraph cut for any side assignment (property test).
func TestCliqueCutApproximatesHyperCut(t *testing.T) {
	b := NewBuilder()
	b.EnsureNodes(20)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(20), rng.Intn(20)
		if u != v {
			if err := b.AddNet("", 1, u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := b.MustBuild()
	g := CliqueExpand(h)
	f := func(mask uint32) bool {
		side := make([]uint8, 20)
		for i := range side {
			side[i] = uint8(mask >> i & 1)
		}
		var hyperCut float64
		for e := 0; e < h.NumNets(); e++ {
			ps := h.Net(e)
			if side[ps[0]] != side[ps[1]] {
				hyperCut += h.NetCost(e)
			}
		}
		diff := g.CutWeight(side) - hyperCut
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesCorruption: mutating internals breaks Validate.
func TestValidateCatchesCorruption(t *testing.T) {
	h := buildSmall(t)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	h2 := h.Clone()
	h2.pinArr[0], h2.pinArr[1] = h2.pinArr[1], h2.pinArr[0] // unsort net 0
	if err := h2.Validate(); err == nil {
		t.Error("Validate accepted unsorted pins")
	}
	h3 := h.Clone()
	h3.netCost[0] = -1
	if err := h3.Validate(); err == nil {
		t.Error("Validate accepted negative cost")
	}
	h4 := h.Clone()
	h4.netOff[len(h4.netOff)-1]-- // offsets no longer span the pin arena
	if err := h4.Validate(); err == nil {
		t.Error("Validate accepted truncated CSR offsets")
	}
}

// TestCloneIndependence: mutating a clone leaves the original intact.
func TestCloneIndependence(t *testing.T) {
	h := buildSmall(t)
	c := h.Clone()
	c.pinArr[0] = 3
	if h.Net(0)[0] == 3 {
		t.Error("clone shares pin storage")
	}
}

// TestWithNetCosts: costs replaced, structure shared, validation applied.
func TestWithNetCosts(t *testing.T) {
	h := buildSmall(t)
	w, err := h.WithNetCosts([]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if w.NetCost(0) != 3 || h.NetCost(0) != 1 {
		t.Error("cost replacement leaked")
	}
	if _, err := h.WithNetCosts([]float64{1}); err == nil {
		t.Error("accepted short cost slice")
	}
	if _, err := h.WithNetCosts([]float64{1, -2}); err == nil {
		t.Error("accepted negative cost")
	}
	for _, c := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := h.WithNetCosts([]float64{c, 1}); err == nil {
			t.Errorf("accepted cost %g", c)
		}
	}
	u, err := h.WithNetCosts([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !u.UnitCost() {
		t.Error("unit costs not detected")
	}
}

// TestStats: the p, q, d quantities of §3.5.
func TestStats(t *testing.T) {
	h := buildSmall(t)
	s := ComputeStats(h)
	if s.Nodes != 4 || s.Nets != 2 || s.Pins != 5 {
		t.Fatalf("stats %+v", s)
	}
	if s.AvgNodeDeg != 1.25 || s.AvgNetSize != 2.5 {
		t.Errorf("p=%g q=%g, want 1.25, 2.5", s.AvgNodeDeg, s.AvgNetSize)
	}
	if s.MaxNetSize != 3 || s.MaxNodeDeg != 2 {
		t.Errorf("max sizes %d/%d", s.MaxNetSize, s.MaxNodeDeg)
	}
}
