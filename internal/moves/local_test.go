package moves

import (
	"math/rand"
	"testing"

	"prop/internal/hypergraph"
	"prop/internal/partition"
)

func localTestGraph(t *testing.T, n, nets, seed int) *hypergraph.Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	b := hypergraph.NewBuilder()
	b.EnsureNodes(n)
	for e := 0; e < nets; e++ {
		sz := 2 + rng.Intn(4)
		pins := make([]int, 0, sz)
		for len(pins) < sz {
			pins = append(pins, rng.Intn(n))
		}
		if err := b.AddNet("", 1, pins...); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// recount computes the cut of sides on h from scratch.
func recount(h *hypergraph.Hypergraph, sides []uint8) float64 {
	cut := 0.0
	for e := 0; e < h.NumNets(); e++ {
		var c [2]int
		for _, p := range h.Net(e) {
			c[sides[p]]++
		}
		if c[0] > 0 && c[1] > 0 {
			cut += h.NetCost(e)
		}
	}
	return cut
}

func TestLocalizedRefineImprovesAndTracksCut(t *testing.T) {
	h := localTestGraph(t, 120, 200, 9)
	bal := partition.B4555()
	rng := rand.New(rand.NewSource(2))
	sides := partition.RandomSides(h, bal, rng)
	var maxW, minW int64 = 1, h.NodeWeight(0)
	for u := 0; u < h.NumNodes(); u++ {
		maxW = max(maxW, h.NodeWeight(u))
		minW = min(minW, h.NodeWeight(u))
	}
	l := NewLocalized(h, bal, maxW, minW, sides, nil, nil)
	start := l.CutCost()
	if got := recount(h, sides); got != start {
		t.Fatalf("initial cut %g, recount %g", start, got)
	}
	for u := 0; u < h.NumNodes(); u++ {
		l.Seed(u)
	}
	out := l.Refine(0)
	if out.Passes == 0 {
		t.Fatal("Refine made no passes")
	}
	end := l.CutCost()
	if end > start {
		t.Fatalf("localized refinement worsened the cut: %g -> %g", start, end)
	}
	if got := recount(h, sides); got != end {
		t.Fatalf("incremental cut %g diverged from recount %g", end, got)
	}
	// Side weights must match a from-scratch sum and stay inside the
	// slack-widened window.
	var w0, total int64
	for u := 0; u < h.NumNodes(); u++ {
		total += h.NodeWeight(u)
		if sides[u] == 0 {
			w0 += h.NodeWeight(u)
		}
	}
	sw := l.SideWeights()
	if sw[0] != w0 || sw[0]+sw[1] != total {
		t.Fatalf("side weights %v, want w0=%d total=%d", sw, w0, total)
	}
	if !bal.FeasibleWithSlack(sw[0], total, maxW) {
		t.Fatalf("refined sides infeasible: %v of %d", sw, total)
	}
	l.Release()
}

func TestLocalizedOnContractedMatchesRecount(t *testing.T) {
	h := localTestGraph(t, 80, 140, 4)
	c, err := hypergraph.NewContracted(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Contract a handful of random alive pairs.
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 30; k++ {
		var alive []int32
		for u := 0; u < c.NumNodes(); u++ {
			if c.Alive(u) {
				alive = append(alive, int32(u))
			}
		}
		u := alive[rng.Intn(len(alive))]
		v := alive[rng.Intn(len(alive))]
		if u == v {
			continue
		}
		c.Contract(u, v)
	}
	bal := partition.B4555()
	sides := make([]uint8, c.NumNodes())
	var w [2]int64
	for u := 0; u < c.NumNodes(); u++ {
		if !c.Alive(u) {
			continue
		}
		s := uint8(0)
		if w[1] < w[0] {
			s = 1
		}
		sides[u] = s
		w[s] += c.NodeWeight(u)
	}
	l := NewLocalized(c, bal, c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, nil)
	start := l.CutCost()
	// Reference: active-pin recount on the view.
	ref := 0.0
	for e := 0; e < c.NumNets(); e++ {
		if c.NetSize(e) < 2 {
			continue
		}
		var cc [2]int
		for _, p := range c.Net(e) {
			cc[sides[p]]++
		}
		if cc[0] > 0 && cc[1] > 0 {
			ref += c.NetCost(e)
		}
	}
	if start != ref {
		t.Fatalf("initial contracted cut %g, recount %g", start, ref)
	}
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			l.Seed(u)
		}
	}
	l.Refine(0)
	end := l.CutCost()
	if end > start {
		t.Fatalf("cut worsened on contracted view: %g -> %g", start, end)
	}
	ref = 0.0
	for e := 0; e < c.NumNets(); e++ {
		if c.NetSize(e) < 2 {
			continue
		}
		var cc [2]int
		for _, p := range c.Net(e) {
			cc[sides[p]]++
		}
		if cc[0] > 0 && cc[1] > 0 {
			ref += c.NetCost(e)
		}
	}
	if end != ref {
		t.Fatalf("incremental cut %g diverged from recount %g", end, ref)
	}
	l.Release()
}

func TestLocalizedUncontractedSeeding(t *testing.T) {
	// Contract, assign sides at the coarse level, then uncontract through
	// Uncontracted: the tracked cut must equal a recount after every pop
	// (uncontraction with side inheritance is cut-neutral).
	h := localTestGraph(t, 60, 100, 11)
	c, err := hypergraph.NewContracted(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 40; k++ {
		var alive []int32
		for u := 0; u < c.NumNodes(); u++ {
			if c.Alive(u) {
				alive = append(alive, int32(u))
			}
		}
		if len(alive) < 2 {
			break
		}
		u := alive[rng.Intn(len(alive))]
		v := alive[rng.Intn(len(alive))]
		if u != v {
			c.Contract(u, v)
		}
	}
	sides := make([]uint8, c.NumNodes())
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			sides[u] = uint8(rng.Intn(2))
		}
	}
	l := NewLocalized(c, partition.B4555(), c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, nil)
	caseA := make([]int32, 0, 32)
	for c.Depth() > 0 {
		var m hypergraph.Memento
		m, caseA = c.Uncontract(caseA[:0])
		l.Uncontracted(int(m.U), int(m.V), caseA)
		want := 0.0
		for e := 0; e < c.NumNets(); e++ {
			if c.NetSize(e) < 2 {
				continue
			}
			var cc [2]int
			for _, p := range c.Net(e) {
				cc[sides[p]]++
			}
			if cc[0] > 0 && cc[1] > 0 {
				want += c.NetCost(e)
			}
		}
		if l.CutCost() != want {
			t.Fatalf("after pop at depth %d: tracked cut %g, recount %g", c.Depth(), l.CutCost(), want)
		}
	}
	l.Refine(0)
	if got := recount(h, sides); got != l.CutCost() {
		t.Fatalf("final cut %g diverged from recount %g", l.CutCost(), got)
	}
}

// selectUngated is selectBest without the side gate: both heaps are
// always scanned.
func (l *Localized) selectUngated() (int, bool) {
	u0, ok0 := heapContainer{l.heap[0]}.FirstFeasible(l.feas)
	u1, ok1 := heapContainer{l.heap[1]}.FirstFeasible(l.feas)
	switch {
	case ok0 && ok1:
		if l.heap[0].Gain(u0) >= l.heap[1].Gain(u1) {
			return u0, true
		}
		return u1, true
	case ok0:
		return u0, true
	case ok1:
		return u1, true
	}
	return -1, false
}

// fillHeaps seeds the heaps with the given nodes the way RunPass does.
func (l *Localized) fillHeaps(nodes []int) {
	for _, u := range nodes {
		l.heap[l.side[u]].Insert(u, l.gain(u))
	}
}

// TestLocalizedSideGateExact: the side gate in selectBest skips only
// scans that cannot find a feasible node, so selectBest returns what an
// ungated scan of both heaps returns. States are random: base weights 1–3,
// contracted nodes up to many times heavier, windows from 50-50% to
// 30-70%, and side assignments skewed far outside the window. Each state
// runs a whole selection sequence, moving what is selected.
func TestLocalizedSideGateExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bals := []partition.Balance{partition.Exact5050(), partition.B4555(), {R1: 0.4, R2: 0.6}, {R1: 0.3, R2: 0.7}}
	var skipped [2]int
	liftedByHeavy := 0
	for trial := 0; trial < 300; trial++ {
		n := 20 + rng.Intn(60)
		b := hypergraph.NewBuilder()
		for u := 0; u < n; u++ {
			b.AddNode("", 1+rng.Int63n(3))
		}
		for e := 0; e < 2*n; e++ {
			pins := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
			if err := b.AddNet("", 1, pins...); err != nil {
				t.Fatal(err)
			}
		}
		h := b.MustBuild()
		c, err := hypergraph.NewContracted(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := rng.Intn(n / 2); k > 0; k-- {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v && c.Alive(int(u)) && c.Alive(int(v)) {
				c.Contract(u, v)
			}
		}
		q := rng.Float64() // skew: the share of nodes put on side 0
		sides := make([]uint8, n)
		var alive []int
		for u := 0; u < n; u++ {
			if c.Alive(u) {
				alive = append(alive, u)
				if rng.Float64() >= q {
					sides[u] = 1
				}
			}
		}
		bal := bals[rng.Intn(len(bals))]
		l := NewLocalized(c, bal, c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, nil)
		l.fillHeaps(alive)
		lo, hi := bal.Bounds(l.total)
		for {
			if l.sideW[0]-l.minW < lo-l.Slack {
				skipped[0]++
			}
			if l.sideW[0]+l.minW > hi+l.Slack {
				skipped[1]++
			}
			u, ok := l.selectBest()
			wu, wok := l.selectUngated()
			if u != wu || ok != wok {
				t.Fatalf("trial %d: sideW %v total %d window [%d, %d] slack %d minW %d: gated (%d, %v), ungated (%d, %v)",
					trial, l.sideW, l.total, lo, hi, l.Slack, l.minW, u, ok, wu, wok)
			}
			if !ok {
				break
			}
			if l.side[u] == 1 && l.sideW[0]+l.minW < lo-l.Slack {
				liftedByHeavy++
			}
			l.heap[l.side[u]].Delete(u)
			l.move(u)
		}
	}
	if skipped[0] == 0 || skipped[1] == 0 || liftedByHeavy == 0 {
		t.Errorf("random states missed a case: side 0 gated %d times, side 1 %d, heavy lifts %d",
			skipped[0], skipped[1], liftedByHeavy)
	}
}

// TestLocalizedSideGateOneSided is the case a two-sided gate (the
// Bisection.CanMoveFrom test) gets wrong on a contracted level. Side 0
// weighs 1 against a 50-50% window of 10 (floor 5, slack 1). Moving side
// 1's lightest node cannot lift it into the window, but moving the
// weight-4 cluster can, so side 1 must still be scanned.
func TestLocalizedSideGateOneSided(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.EnsureNodes(10)
	for u := 1; u < 9; u++ {
		if err := b.AddNet("", 1, u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddNet("", 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	c, err := hypergraph.NewContracted(b.MustBuild(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int32{2, 3, 4} {
		c.Contract(1, v) // node 1 weighs 4
	}
	sides := []uint8{0, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	l := NewLocalized(c, partition.Exact5050(), c.MaxBaseNodeWeight(), c.MinBaseNodeWeight(), sides, c.Alive, nil)
	if l.sideW != [2]int64{1, 9} || l.minW != 1 || l.Slack != 1 {
		t.Fatalf("setup: sideW %v, minW %d, slack %d", l.sideW, l.minW, l.Slack)
	}
	l.fillHeaps([]int{1, 5, 6, 7, 8, 9})
	if u, ok := l.selectBest(); !ok || u != 1 {
		t.Errorf("selectBest = (%d, %v), want the weight-4 node 1", u, ok)
	}
}
