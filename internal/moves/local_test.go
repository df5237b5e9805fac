package moves

import (
	"math"
	"math/rand"
	"slices"
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
	// At depth 0 the view is the graph itself.
	c, err := hypergraph.NewContracted(h)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLocalized(c, bal, sides)
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
	if !bal.FeasibleWithSlack(sw[0], total, c.MaxBaseNodeWeight()) {
		t.Fatalf("refined sides infeasible: %v of %d", sw, total)
	}
}

func TestLocalizedOnContractedMatchesRecount(t *testing.T) {
	h := localTestGraph(t, 80, 140, 4)
	c, err := hypergraph.NewContracted(h)
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
	l := NewLocalized(c, bal, sides)
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
}

// TestLocalizedResyncMatchesFresh: after sides move behind a refiner's
// back, Resync leaves it in the state a freshly built refiner has — pin
// counts, side weights, total and cut, each also checked against a
// recount — and both then refine identically.
func TestLocalizedResyncMatchesFresh(t *testing.T) {
	h := localTestGraph(t, 100, 170, 21)
	c, err := hypergraph.NewContracted(h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for k := 0; k < 35; k++ {
		u, v := int32(rng.Intn(c.NumNodes())), int32(rng.Intn(c.NumNodes()))
		if u != v && c.Alive(int(u)) && c.Alive(int(v)) {
			c.Contract(u, v)
		}
	}
	var alive []int
	sides := make([]uint8, c.NumNodes())
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			alive = append(alive, u)
			sides[u] = uint8(len(alive) % 2)
		}
	}
	bal := partition.B4555()
	l := NewLocalized(c, bal, sides)
	for _, u := range alive {
		l.Seed(u)
	}
	l.Refine(0) // advance the epochs and leave entries in the heaps
	flipped := 0
	for _, u := range alive {
		if rng.Intn(4) == 0 {
			sides[u] ^= 1
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("no side flipped")
	}
	l.Resync()

	fresh := NewLocalized(c, bal, append([]uint8(nil), sides...))
	for s := 0; s < 2; s++ {
		for e := 0; e < c.NumNets(); e++ {
			if l.pinCount[s][e] != fresh.pinCount[s][e] {
				t.Fatalf("net %d side %d: resynced pin count %d, fresh %d", e, s, l.pinCount[s][e], fresh.pinCount[s][e])
			}
		}
	}
	if l.sideW != fresh.sideW || l.total != fresh.total || l.cut != fresh.cut {
		t.Fatalf("resynced sideW %v total %d cut %g, fresh sideW %v total %d cut %g",
			l.sideW, l.total, l.cut, fresh.sideW, fresh.total, fresh.cut)
	}

	var w [2]int64
	for _, u := range alive {
		w[sides[u]] += c.NodeWeight(u)
	}
	ref := 0.0
	for e := 0; e < c.NumNets(); e++ {
		var cc [2]int32
		for _, p := range c.Net(e) {
			cc[sides[p]]++
		}
		if cc != [2]int32{l.pinCount[0][e], l.pinCount[1][e]} {
			t.Fatalf("net %d: pin counts %d/%d, recount %v", e, l.pinCount[0][e], l.pinCount[1][e], cc)
		}
		if c.NetSize(e) >= 2 && cc[0] > 0 && cc[1] > 0 {
			ref += c.NetCost(e)
		}
	}
	if l.sideW != w || l.total != w[0]+w[1] || l.cut != ref {
		t.Fatalf("resynced sideW %v total %d cut %g, recount %v %d %g", l.sideW, l.total, l.cut, w, w[0]+w[1], ref)
	}

	for _, u := range alive {
		l.Seed(u)
		fresh.Seed(u)
	}
	l.Refine(0)
	fresh.Refine(0)
	if l.cut != fresh.cut || string(l.side) != string(fresh.side) {
		t.Fatalf("after refining: resynced cut %g, fresh %g (sides equal: %v)",
			l.cut, fresh.cut, string(l.side) == string(fresh.side))
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
		c, err := hypergraph.NewContracted(h)
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
		l := NewLocalized(c, bal, sides)
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
	c, err := hypergraph.NewContracted(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int32{2, 3, 4} {
		c.Contract(1, v) // node 1 weighs 4
	}
	sides := []uint8{0, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	l := NewLocalized(c, partition.Exact5050(), sides)
	if l.sideW != [2]int64{1, 9} || l.minW != 1 || l.Slack != 1 {
		t.Fatalf("setup: sideW %v, minW %d, slack %d", l.sideW, l.minW, l.Slack)
	}
	l.fillHeaps([]int{1, 5, 6, 7, 8, 9})
	if u, ok := l.selectBest(); !ok || u != 1 {
		t.Errorf("selectBest = (%d, %v), want the weight-4 node 1", u, ok)
	}
}

// checkLiveCounts fails unless every live (≥ 2 active pins) net's pin
// counts, the side weights and the cut equal a recount from the view and
// the side assignment. Dead nets carry no gain and no cut, and their
// counts are not maintained: a one-pin net handed to a node by
// contraction is not in that node's NetsOf. Under fractional costs the
// tracked cut and the recount add in different orders, so the cut need
// only agree to rounding there.
func checkLiveCounts(t *testing.T, l *Localized, when string) {
	t.Helper()
	c := l.c
	cut := 0.0
	for e := 0; e < c.NumNets(); e++ {
		if c.NetSize(e) < 2 {
			continue
		}
		var cc [2]int32
		for _, p := range c.Net(e) {
			cc[l.side[p]]++
		}
		if got := [2]int32{l.pinCount[0][e], l.pinCount[1][e]}; got != cc {
			t.Fatalf("%s: net %d pin counts %v, recount %v", when, e, got, cc)
		}
		if cc[0] > 0 && cc[1] > 0 {
			cut += c.NetCost(e)
		}
	}
	var w [2]int64
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			w[l.side[u]] += c.NodeWeight(u)
		}
	}
	if d := math.Abs(l.cut - cut); l.sideW != w || (l.exact && d != 0) || d > 1e-9*(1+cut) {
		t.Fatalf("%s: cut %g sideW %v, recount %g %v", when, l.cut, l.sideW, cut, w)
	}
}

// TestLocalizedDeadNetRegrowth: a net that died under contraction and was
// handed to a node that does not list it must read right when it regrows.
// Nets {0, 1} and {2, 3}: Contract(1, 0) kills the first net, and
// Contract(2, 1) hands its one pin to node 2 without adoption. Node 2
// then moves to side 1, which the net's counts cannot see. After both
// pops the net holds nodes 0 and 1, both on side 1; incrementing the
// stale counts read it as cut, so moving node 0 claimed gain +1 and drove
// the tracked cut to −1.
func TestLocalizedDeadNetRegrowth(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.EnsureNodes(4)
	for _, pins := range [][]int{{0, 1}, {2, 3}} {
		if err := b.AddNet("", 1, pins...); err != nil {
			t.Fatal(err)
		}
	}
	c, err := hypergraph.NewContracted(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	c.Contract(1, 0)
	c.Contract(2, 1)
	sides := []uint8{0, 0, 0, 1}
	l := NewLocalized(c, partition.B4555(), sides)
	l.move(2)
	var caseA []int32
	for c.Depth() > 0 {
		var m hypergraph.Memento
		m, caseA = c.Uncontract(caseA[:0])
		l.Uncontracted(int(m.U), int(m.V), caseA)
		checkLiveCounts(t, l, "after a pop")
	}
	if got := [2]int32{l.pinCount[0][0], l.pinCount[1][0]}; got != [2]int32{0, 2} {
		t.Fatalf("net {0, 1} pin counts %v, want [0 2]", got)
	}
	if g := l.gain(0); g != -1 {
		t.Errorf("gain of node 0 = %g, want -1", g)
	}
	l.move(0)
	if l.cut != 1 {
		t.Errorf("cut after moving node 0 = %g, want 1", l.cut)
	}
}

// TestLocalizedUncontractedSeeding runs the n-level unwind in miniature:
// random graphs contracted deep, sides assigned at the coarsest level,
// then popped through Uncontracted. Even trials refine only once the
// unwind is done; odd trials pop in small batches with a Refine after
// each, as n-level uncoarsening does. Every live net's pin counts, the
// side weights and the cut must equal a recount after every pop and
// every Refine. Refining only at the end never moves a node that holds
// an unlisted dead net, so it cannot show count drift on regrown nets.
func TestLocalizedUncontractedSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 40 + rng.Intn(80)
		h := localTestGraph(t, n, n+rng.Intn(n), 100+trial)
		c, err := hypergraph.NewContracted(h)
		if err != nil {
			t.Fatal(err)
		}
		for c.AliveCount() > 4 {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v && c.Alive(int(u)) && c.Alive(int(v)) {
				c.Contract(u, v)
			}
		}
		sides := make([]uint8, n)
		for u := range sides {
			sides[u] = uint8(rng.Intn(2))
		}
		l := NewLocalized(c, partition.Balance{R1: 0.3, R2: 0.7}, sides)
		var caseA []int32
		for c.Depth() > 0 {
			for k := 1 + rng.Intn(4); k > 0 && c.Depth() > 0; k-- {
				var m hypergraph.Memento
				m, caseA = c.Uncontract(caseA[:0])
				l.Uncontracted(int(m.U), int(m.V), caseA)
				checkLiveCounts(t, l, "after a pop")
			}
			if trial%2 == 1 {
				l.Refine(8)
				checkLiveCounts(t, l, "after Refine")
			}
		}
		l.Refine(8)
		if got := recount(h, sides); got != l.cut {
			t.Fatalf("trial %d: final cut %g, recount %g", trial, l.cut, got)
		}
	}
}

// fullPass runs a refiner's passes as they ran before the pass-end bound
// and the exact re-scoring rule: every pass until no candidate is left,
// and every unlocked active pin of a moved node's live nets re-scored. It
// is the reference the bound and the rule must reproduce bit for bit.
//
// With t set it also keeps the bound's bookkeeping live, without ever
// stopping on it, and fails if a prefix sum exceeds Sum + reach as it
// stood at any earlier step of the pass: the inequality the bound rests
// on, checked directly.
type fullPass struct {
	*Localized
	t       *testing.T
	checked int // prefix sums checked against an earlier bound
}

func (r *fullPass) RunPass() (float64, int, int) {
	l := r.Localized
	l.beginPass()
	lim := math.Inf(1)
	for l.heap[0].Len()+l.heap[1].Len() > 0 {
		if r.t != nil && l.exact && len(l.active) >= maxActive {
			if !l.bounded {
				l.countMovable()
			}
			lim = math.Min(lim, l.log.Sum()+l.reach)
		}
		u, ok := l.selectBest()
		if !ok {
			break
		}
		l.heap[l.side[u]].Delete(u)
		l.stamp[u] = l.lock
		if l.bounded {
			l.retire(u)
		}
		l.log.Record(u, l.move(u))
		if l.bounded {
			l.addReach(u)
			if r.checked++; l.log.Sum() > lim {
				r.t.Fatalf("prefix sum %g after %d moves exceeds the earlier bound %g", l.log.Sum(), l.log.Len(), lim)
			}
		}
		for _, e := range l.c.NetsOf(u) {
			if l.c.NetSize(int(e)) < 2 {
				continue
			}
			for _, w := range l.c.Net(int(e)) {
				if w == int32(u) || l.stamp[w] == l.lock {
					continue
				}
				if l.activate(w); l.stamp[w] >= l.epoch {
					l.heap[l.side[w]].Insert(int(w), l.gain(int(w)))
				}
			}
		}
	}
	return l.endPass()
}

// hubSize is how many base nodes boundTestView contracts into each hub.
const hubSize = 6

// boundTestView builds a random graph with net costs cost(e), contracts it
// to about three quarters of its nodes (coarse nodes with adopted net
// lists), and assigns alive nodes to sides greedily by weight.
//
// With hubs > 1, nodes [0, hubs·hubSize) form hub groups of hubSize that
// are contracted first, and half the nets also pin a member of each of
// two random groups, so every two hub clusters share dozens of nets.
func boundTestView(t *testing.T, n, hubs int, seed int64, cost func(e int) float64) (*hypergraph.Contracted, []uint8, []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hypergraph.NewBuilder()
	for u := 0; u < n; u++ {
		b.AddNode("", 1+rng.Int63n(2))
	}
	for e := 0; e < n*5/4; e++ {
		pins := make([]int, 2+rng.Intn(5))
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		if hubs > 1 && rng.Intn(2) == 0 {
			g1, g2 := rng.Intn(hubs), rng.Intn(hubs-1)
			if g2 >= g1 {
				g2++
			}
			pins = append(pins, g1*hubSize+rng.Intn(hubSize), g2*hubSize+rng.Intn(hubSize))
		}
		if err := b.AddNet("", cost(e), pins...); err != nil {
			t.Fatal(err)
		}
	}
	c, err := hypergraph.NewContracted(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < hubs*hubSize; u++ {
		if rep := u - u%hubSize; rep != u {
			c.Contract(int32(rep), int32(u))
		}
	}
	for c.AliveCount() > n*3/4 {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v && c.Alive(int(u)) && c.Alive(int(v)) {
			c.Contract(u, v)
		}
	}
	sides := make([]uint8, n)
	var alive []int32
	var w [2]int64
	for _, u := range rng.Perm(n) {
		if c.Alive(u) {
			s := uint8(0)
			if w[1] < w[0] {
				s = 1
			}
			sides[u] = s
			w[s] += c.NodeWeight(u)
			alive = append(alive, int32(u))
		}
	}
	return c, sides, alive
}

// passRec is one pass's outcome as Run's afterPass sees it.
type passRec struct {
	gmax        float64
	moves, kept int
}

// episodesMatchFull refines random 128-node seed sets on a view twice,
// once with the refiner's own passes and once with fullPass checking the
// bound's inequality, and fails unless sides, pin counts, side weights,
// cut and every pass's (G_max, kept) agree bit for bit after each
// episode. It returns how many
// episodes there were, how many passes the bound ended early (fewer moves
// than the reference) and the moves both made.
func episodesMatchFull(t *testing.T, c *hypergraph.Contracted, sides []uint8, alive []int32, episodes int, seed int64) (early, moves, fullMoves int) {
	t.Helper()
	bal := partition.B4555()
	l := NewLocalized(c, bal, sides)
	ref := &fullPass{Localized: NewLocalized(c, bal, append([]uint8(nil), sides...)), t: t}
	rng := rand.New(rand.NewSource(seed))
	var got, want []passRec
	for ep := 0; ep < episodes; ep++ {
		for k := 0; k < 128; k++ {
			u := int(alive[rng.Intn(len(alive))])
			l.Seed(u)
			ref.Seed(u)
		}
		got, want = got[:0], want[:0]
		l.startEpisode()
		Run(l, 8, nil, 0, func(g float64, m, k int) { got = append(got, passRec{g, m, k}) })
		ref.startEpisode()
		Run(ref, 8, nil, 0, func(g float64, m, k int) { want = append(want, passRec{g, m, k}) })
		if len(got) != len(want) {
			t.Fatalf("episode %d: %d passes, reference %d", ep, len(got), len(want))
		}
		for i := range got {
			if got[i].gmax != want[i].gmax || got[i].kept != want[i].kept {
				t.Fatalf("episode %d pass %d: (G_max %g, kept %d), reference (%g, %d)",
					ep, i, got[i].gmax, got[i].kept, want[i].gmax, want[i].kept)
			}
			if got[i].moves > want[i].moves {
				t.Fatalf("episode %d pass %d: %d moves, reference %d", ep, i, got[i].moves, want[i].moves)
			}
			if got[i].moves < want[i].moves {
				early++
			}
			moves += got[i].moves
			fullMoves += want[i].moves
		}
		if string(l.side) != string(ref.side) || l.cut != ref.cut || l.sideW != ref.sideW {
			t.Fatalf("episode %d: cut %g sideW %v, reference %g %v (sides equal: %v)",
				ep, l.cut, l.sideW, ref.cut, ref.sideW, string(l.side) == string(ref.side))
		}
		for s := 0; s < 2; s++ {
			for e := range l.pinCount[s] {
				if l.pinCount[s][e] != ref.pinCount[s][e] {
					t.Fatalf("episode %d: net %d side %d count %d, reference %d", ep, e, s, l.pinCount[s][e], ref.pinCount[s][e])
				}
			}
		}
	}
	checkLiveCounts(t, l, "after the episodes")
	if l.exact && ref.checked == 0 {
		t.Fatal("no prefix sum was checked against the bound")
	}
	return early, moves, fullMoves
}

// TestLocalizedBoundMatchesFullPasses: with integer costs the pass-end
// bound and the re-scoring rule change no partition. Over 300 episodes
// on views of over 1,000 alive nodes, the last with hub clusters, passes
// that stop at the bound keep the prefix, G_max and state that passes run
// to the end keep. The test also demands that the bound ended passes
// early.
func TestLocalizedBoundMatchesFullPasses(t *testing.T) {
	early, moves, fullMoves, episodes := 0, 0, 0, 0
	for g := int64(0); g < 5; g++ {
		hubs := 0
		if g == 4 {
			hubs = 8
		}
		c, sides, alive := boundTestView(t, 1400, hubs, 50+g, func(e int) float64 { return float64(1 + e%3) })
		if len(alive) < 1000 {
			t.Fatalf("view has %d alive nodes, want ≥ 1000", len(alive))
		}
		e, m, f := episodesMatchFull(t, c, sides, alive, 60, 70+g)
		early, moves, fullMoves, episodes = early+e, moves+m, fullMoves+f, episodes+60
	}
	if early == 0 {
		t.Fatal("the bound never ended a pass early")
	}
	t.Logf("%d episodes: the bound ended %d passes early; %d moves against %d", episodes, early, moves, fullMoves)
}

// TestLocalizedBoundStopsAtExactThreshold pins the stop test at its
// threshold. 600 nodes share a single cut net {0, 1}, so once 512 seeds
// fill the active set the bound is exactly the one gain left: the pass
// must make that move and stop right after it, where the prefix sum
// meets Sum + reach, not one unit of cost earlier (keeping nothing) and
// not after moving every node (as the reference does).
func TestLocalizedBoundStopsAtExactThreshold(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.EnsureNodes(600)
	if err := b.AddNet("", 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	c, err := hypergraph.NewContracted(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	refine := func(r PassRunner, l *Localized) Outcome {
		for u := 0; u < 600; u++ {
			l.Seed(u)
		}
		l.startEpisode()
		return Run(r, 8, nil, 0, nil)
	}
	sides := make([]uint8, 600)
	for u := range sides {
		sides[u] = uint8(u % 2)
	}
	l := NewLocalized(c, partition.B4555(), sides)
	if out := refine(l, l); out != (Outcome{Passes: 2, Moves: 1, Kept: 1}) || l.cut != 0 {
		t.Errorf("outcome %+v, cut %g; want 2 passes, 1 move kept, cut 0", out, l.cut)
	}
	for u := range sides {
		sides[u] = uint8(u % 2)
	}
	ref := &fullPass{Localized: NewLocalized(c, partition.B4555(), sides), t: t}
	if out := refine(ref, ref.Localized); out.Kept != 1 || out.Moves < 100 || ref.cut != 0 {
		t.Errorf("reference outcome %+v, cut %g; want 1 move kept of many, cut 0", out, ref.cut)
	}
}

// TestLocalizedFractionalCostsMatchFullPasses: costs such as 1.1 or 1.3
// make prefix sums round, so the bound is off and passes run to the end;
// the re-scoring rule alone must still match the reference.
func TestLocalizedFractionalCostsMatchFullPasses(t *testing.T) {
	c, sides, alive := boundTestView(t, 1400, 0, 60, func(e int) float64 { return 1 + float64(e%5)*0.1 })
	if exactCosts(c) {
		t.Fatal("fractional costs read as exact")
	}
	if early, _, _ := episodesMatchFull(t, c, sides, alive, 40, 80); early != 0 {
		t.Fatalf("the bound ended %d passes early under fractional costs", early)
	}
}

// TestLocalizedKeysAndReachExact drives passes move by move on episodes
// that fill the active set. After every move each active, unmoved node
// must sit in its side's heap keyed by a fresh gain, and once the bound
// is live its movable counts and reach must equal a recount. The second
// view has hub clusters sharing dozens of nets with each other, so a
// move re-keys some pins by a delta on net after net, and some pins enter
// the episode on one net of the moved node and change their term on a
// later one (late shares), where a delta would count that net twice.
func TestLocalizedKeysAndReachExact(t *testing.T) {
	for _, hubs := range []int{0, 8} {
		c, sides, alive := boundTestView(t, 1200, hubs, 90, func(e int) float64 { return float64(1 + e%4) })
		l := NewLocalized(c, partition.B4555(), sides)
		rng := rand.New(rand.NewSource(91))
		boundedMoves, late := 0, 0
		for ep := 0; ep < 12; ep++ {
			for k := 0; k < 128; k++ {
				l.Seed(int(alive[rng.Intn(len(alive))]))
			}
			l.startEpisode()
			for pass := 0; pass < 8; pass++ {
				l.beginPass()
				for first := len(l.active); l.step(); first = len(l.active) {
					checkKeys(t, l)
					late += lateShares(l, first)
					if l.bounded {
						checkReach(t, l)
						boundedMoves++
					}
				}
				if gmax, _, _ := l.endPass(); gmax <= EpsGain {
					break
				}
			}
		}
		if boundedMoves == 0 {
			t.Fatalf("hubs %d: no move was made with the bound live", hubs)
		}
		if hubs > 0 && late == 0 {
			t.Fatalf("hubs %d: no pin entered the episode and changed its term on a later net", hubs)
		}
		checkLiveCounts(t, l, "after the episodes")
		t.Logf("hubs %d: %d moves with the bound live, %d late shares", hubs, boundedMoves, late)
	}
}

// lateShares counts the pins the last move activated (l.active[first:])
// whose FM term changed on a live net of the moved node after the first
// such net that pins them.
func lateShares(l *Localized, first int) int {
	u := l.log.nodes[len(l.log.nodes)-1]
	to := l.side[u]
	n := 0
	for _, w := range l.active[first:] {
		seen := false
		for _, e := range l.c.NetsOf(u) {
			if l.c.NetSize(int(e)) < 2 || !slices.Contains(l.c.Net(int(e)), w) {
				continue
			}
			fs, ft := l.pinCount[to^1][e], l.pinCount[to][e]
			changed := fs == 1 || ft == 1
			if l.side[w] == to {
				changed = fs == 0 || ft == 2
			}
			if seen && changed {
				n++
				break
			}
			seen = true
		}
	}
	return n
}

// checkKeys fails unless every active node is in its side's heap keyed by
// a fresh gain, or in no heap once moved this pass.
func checkKeys(t *testing.T, l *Localized) {
	t.Helper()
	for _, u := range l.active {
		h := l.heap[l.side[u]]
		if l.stamp[u] == l.lock {
			if h.Contains(int(u)) || l.heap[1-l.side[u]].Contains(int(u)) {
				t.Fatalf("moved node %d still in a heap", u)
			}
			continue
		}
		if !h.Contains(int(u)) {
			t.Fatalf("unmoved active node %d missing from its heap", u)
		}
		if g := l.gain(int(u)); h.Gain(int(u)) != g {
			t.Fatalf("node %d keyed %g, fresh gain %g", u, h.Gain(int(u)), g)
		}
	}
}

// checkReach fails unless every net's movable counts (zero for nets no
// unmoved active node pins) and reach equal a recount.
func checkReach(t *testing.T, l *Localized) {
	t.Helper()
	c := l.c
	movable := [2][]uint16{make([]uint16, c.NumNets()), make([]uint16, c.NumNets())}
	for _, u := range l.active {
		if l.stamp[u] == l.lock {
			continue
		}
		for _, e := range c.NetsOf(int(u)) {
			if c.NetSize(int(e)) >= 2 {
				movable[l.side[u]][e]++
			}
		}
	}
	reach := 0.0
	for e := 0; e < c.NumNets(); e++ {
		if movable[0][e] != l.movable[0][e] || movable[1][e] != l.movable[1][e] {
			t.Fatalf("net %d movable %d/%d, recount %d/%d", e, l.movable[0][e], l.movable[1][e], movable[0][e], movable[1][e])
		}
		c0, c1 := l.pinCount[0][e], l.pinCount[1][e]
		if c.NetSize(e) >= 2 && c0 > 0 && c1 > 0 && (int32(movable[0][e]) == c0 || int32(movable[1][e]) == c1) {
			reach += c.NetCost(e)
		}
	}
	if reach != l.reach {
		t.Fatalf("reach %g, recount %g", l.reach, reach)
	}
}
