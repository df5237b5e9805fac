package moves

import (
	"math"

	"prop/internal/ds"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// maxActive caps how many distinct nodes one episode may activate (seeds
// plus expansion): 8× the n-level driver's batch of 64 pops. The cap keeps
// a batch's work proportional to its seed set even when a move cascade
// would otherwise pull in a whole region; at 32× the batch the episode
// passes took 95% of the wall clock re-scanning their active sets.
const maxActive = 512

// Localized is the boundary-seeded FM refiner of the n-level path. Where
// Loop fills its containers with every node of the graph, Localized is
// seeded with just-uncontracted vertices and grows outward only through
// neighbors of nodes it actually moves — on a million-node hierarchy a
// batch refines a few dozen nodes, not the graph.
//
// It runs on a hypergraph.Contracted view, whose Net returns the active
// pin prefix and NetSize the active size, so it sees each level of the
// n-level hierarchy without any projection step. It owns its own
// incremental state (sides, per-net side pin counts, side weights, cut)
// because partition.Bisection cannot wrap a view, but it reuses the shared
// pass protocol end to end: gain containers are per-side ds.GainHeaps over
// one shared position index (memory follows the active set, not the ID
// space) scanned by the heap container's FirstFeasible, passes implement
// PassRunner so Run drives convergence and trace emission, and the kept
// prefix comes from PassLog.BestPrefix with RollbackWith undoing rejected
// moves. A pass stops early once a bound proves that no later move can
// improve on its best prefix, which changes no result (see step).
// Feasibility uses the base graph's maximum node weight as constant slack,
// the same window the V-cycle grants its per-level refiners; depth-0
// callers tighten the final result with a standard repair + full refine.
type Localized struct {
	c     *hypergraph.Contracted
	Bal   partition.Balance
	Slack int64

	// minW is a floor on every node weight the refiner can meet: the base
	// graph's lightest node. selectBest uses it to skip a side none of
	// whose nodes can move.
	minW int64

	side     []uint8 // caller-owned side assignment, len NumNodes
	pinCount [2][]int32
	sideW    [2]int64
	total    int64
	cut      float64

	heap [2]*ds.GainHeap
	pos  []int32          // shared by both heaps (disjoint membership)
	feas func(u int) bool // l.feasible, bound once: no per-scan closure

	// One clock stamps both episode membership and pass locks: lock is
	// bumped per pass and per episode, epoch is its value when the
	// episode began, so lock > epoch inside a pass. stamp[u] ≥ epoch
	// puts u in the active set and stamp[u] == lock locks it.
	stamp []int32
	epoch int32
	lock  int32

	active  []int32 // nodes eligible for this episode's containers
	pending []int32 // seeds accumulated since the last Refine
	log     PassLog

	// The pass-end bound (see step). exact is fixed at construction; the
	// rest lives for one pass, from the moment the active set is full.
	exact   bool        // integer net costs summing below 2^53
	bounded bool        // movable and reach are live this pass
	reach   float64     // summed cost of the cut nets a later move could uncut
	movable [2][]uint16 // per live net and side: active pins not yet moved
	counted []int32     // nets with movable pins, whose counts pass end zeroes
}

// NewLocalized builds the refiner for view c under the given side
// assignment, taken by reference and maintained in place. The slack is
// c's largest base node weight and the weight floor its smallest.
func NewLocalized(c *hypergraph.Contracted, bal partition.Balance, side []uint8) *Localized {
	n, m := c.NumNodes(), c.NumNets()
	l := &Localized{
		c: c, Bal: bal, Slack: c.MaxBaseNodeWeight(), minW: c.MinBaseNodeWeight(), side: side,
		pinCount: [2][]int32{make([]int32, m), make([]int32, m)},
		pos:      make([]int32, n),
		stamp:    make([]int32, n),
	}
	if l.exact = exactCosts(c); l.exact {
		l.movable = [2][]uint16{make([]uint16, m), make([]uint16, m)}
	}
	ds.FillAbsent(l.pos)
	l.heap[0] = ds.NewSharedGainHeap(l.pos)
	l.heap[1] = ds.NewSharedGainHeap(l.pos)
	l.feas = l.feasible
	l.Resync()
	return l
}

// exactCosts reports whether every net cost of c is an integer and their
// sum is below 2^53. Then every cut, gain and prefix sum the refiner forms
// is an integer of magnitude at most that sum, which float64 holds
// exactly whatever the order of the additions.
func exactCosts(c *hypergraph.Contracted) bool {
	var sum float64
	for e := 0; e < c.NumNets(); e++ {
		w := c.NetCost(e)
		if sum += w; w != math.Trunc(w) || sum >= 1<<53 {
			return false
		}
	}
	return true
}

// Resync recounts the incremental state from the view and the side
// assignment: per-net side pin counts over active pins, side weights over
// alive nodes (dead nodes carry no weight and sit in no active pin), and
// the exact cut. Call it after sides moved behind the refiner's back, with
// no seeds pending. Nothing else needs resetting: the stamps' clock only
// grows and each pass clears the heaps. Runs in O(pins + nodes).
func (l *Localized) Resync() {
	c, side := l.c, l.side
	l.cut = 0
	for e := 0; e < c.NumNets(); e++ {
		cs := [2]int32{}
		for _, p := range c.Net(e) {
			cs[side[p]]++
		}
		l.pinCount[0][e] = cs[0]
		l.pinCount[1][e] = cs[1]
		if c.NetSize(e) >= 2 && cs[0] > 0 && cs[1] > 0 {
			l.cut += c.NetCost(e)
		}
	}
	l.sideW, l.total = [2]int64{}, 0
	for u := 0; u < c.NumNodes(); u++ {
		if c.Alive(u) {
			w := c.NodeWeight(u)
			l.sideW[side[u]] += w
			l.total += w
		}
	}
}

// CutCost returns the refiner's incrementally-maintained cut.
func (l *Localized) CutCost() float64 { return l.cut }

// SideWeights returns the current side weights over alive nodes.
func (l *Localized) SideWeights() [2]int64 { return l.sideW }

// Uncontracted tells the refiner that v was just revived next to u: v
// inherits u's side (cut-neutral — case-A nets gain a pin on a side that
// already held u; case-B nets swapped pin identity within the side), the
// revived pins are counted, and both endpoints become seeds for the next
// Refine call.
//
// A case-A net that regrows to two active pins was dead until now, and a
// dead net's counts can be stale: contraction may have handed it to a
// node that does not list it (see Contracted.NetsOf), so moves of that
// node never reached them. Its two pins are u and v, both on u's side, so
// its counts are set outright instead of incremented.
func (l *Localized) Uncontracted(u, v int, caseA []int32) {
	s := l.side[u]
	l.side[v] = s
	for _, e := range caseA {
		if l.c.NetSize(int(e)) == 2 {
			l.pinCount[s][e], l.pinCount[1-s][e] = 2, 0
		} else {
			l.pinCount[s][e]++
		}
	}
	l.pending = append(l.pending, int32(u), int32(v))
}

// Seed adds u as a refinement seed for the next Refine call.
func (l *Localized) Seed(u int) { l.pending = append(l.pending, int32(u)) }

// gain returns the FM gain of moving u to the other side (Eqn 1): nets
// where u is its side's lone active pin stop being cut; nets whose other
// side is empty become cut. Dead (< 2 active pin) nets carry no gain.
func (l *Localized) gain(u int) float64 {
	s := l.side[u]
	g := 0.0
	for _, e := range l.c.NetsOf(u) {
		if l.c.NetSize(int(e)) < 2 {
			continue
		}
		if l.pinCount[s][e] == 1 {
			g += l.c.NetCost(int(e))
		} else if l.pinCount[1-s][e] == 0 {
			g -= l.c.NetCost(int(e))
		}
	}
	return g
}

// move flips u's side, maintaining pin counts, side weights and the cut,
// and returns the immediate gain (the cut decrease).
func (l *Localized) move(u int) float64 {
	s := l.side[u]
	t := 1 - s
	var delta float64
	for _, e := range l.c.NetsOf(u) {
		if l.c.NetSize(int(e)) >= 2 {
			cs, ct := l.pinCount[s][e], l.pinCount[t][e]
			if ct == 0 {
				delta += l.c.NetCost(int(e))
			} else if cs == 1 {
				delta -= l.c.NetCost(int(e))
			}
		}
		l.pinCount[s][e]--
		l.pinCount[t][e]++
	}
	l.side[u] = t
	w := l.c.NodeWeight(u)
	l.sideW[s] -= w
	l.sideW[t] += w
	l.cut += delta
	return -delta
}

// feasible reports whether moving u keeps the side weights inside the
// balance window with the constant slack.
func (l *Localized) feasible(u int) bool {
	w0 := l.sideW[0]
	if l.side[u] == 0 {
		w0 -= l.c.NodeWeight(u)
	} else {
		w0 += l.c.NodeWeight(u)
	}
	return l.Bal.FeasibleWithSlack(w0, l.total, l.Slack)
}

// activate registers u for this episode (idempotent) subject to maxActive.
func (l *Localized) activate(u int32) {
	if l.stamp[u] >= l.epoch || len(l.active) >= maxActive {
		return
	}
	l.stamp[u] = l.epoch
	l.active = append(l.active, u)
}

// Algo implements PassRunner.
func (l *Localized) Algo() string { return "local-fm" }

// Cut implements PassRunner.
func (l *Localized) Cut() float64 { return l.cut }

// RunPass implements PassRunner: one boundary-localized FM pass over the
// episode's active set, with prefix-max rollback.
func (l *Localized) RunPass() (float64, int, int) {
	l.beginPass()
	for l.step() {
	}
	return l.endPass()
}

// beginPass re-arms the locks and fills the heaps with the active set.
func (l *Localized) beginPass() {
	l.lock++
	l.log.Reset()
	l.heap[0].Clear()
	l.heap[1].Clear()
	for _, u := range l.active {
		l.heap[l.side[u]].Insert(int(u), l.gain(int(u)))
	}
}

// endPass drops the bound's state, rolls back past the best prefix and
// returns the pass's G_max, moves and kept prefix.
func (l *Localized) endPass() (float64, int, int) {
	if l.bounded {
		for _, e := range l.counted {
			l.movable[0][e], l.movable[1][e] = 0, 0
		}
		l.counted = l.counted[:0]
		l.bounded = false
	}
	p, gmax := l.log.BestPrefix()
	l.log.RollbackWith(p, func(_, node int) { l.move(node) })
	return gmax, l.log.Len(), p
}

// step makes the pass's next move and reports whether it made one. The
// pass ends when the heaps are empty, when no candidate is feasible, or
// when the bound below proves that no later prefix can become the best.
//
// The bound starts once the active set is full: activate then admits no
// node, so only the active nodes not yet moved (the movable set M) can
// move for the rest of the pass, and M only shrinks. A later move lowers
// the cut only by uncutting a net that is cut now and has every pin of one
// side in M; a net uncut now can only add cost. So with reach the summed
// cost of such nets, no later prefix sum exceeds Sum + reach, and once
// that cannot pass the best prefix by more than EpsGain — the test Record
// uses to advance it — the rest of the pass is moves the rollback would
// undo. BestPrefix, the rollback and the next pass (whose active set the
// skipped moves could not have grown) see what a pass run to the end
// sees. The arithmetic is exact only under integer costs (exactCosts);
// otherwise passes run to the end.
func (l *Localized) step() bool {
	if l.heap[0].Len()+l.heap[1].Len() == 0 {
		return false
	}
	if l.exact && len(l.active) >= maxActive {
		if !l.bounded {
			l.countMovable()
		}
		if _, best := l.log.BestPrefix(); l.log.Sum()+l.reach <= best+EpsGain {
			return false
		}
	}
	u, ok := l.selectBest()
	if !ok {
		return false
	}
	l.heap[l.side[u]].Delete(u)
	l.stamp[u] = l.lock
	if l.bounded {
		l.retire(u)
	}
	imm := l.move(u)
	if l.bounded {
		l.addReach(u)
	}
	l.log.Record(u, imm)
	l.rescore(u)
	return true
}

// rescore updates the heap keys that u's move changed and grows the
// episode through u's live nets. Every unlocked pin sharing such a net
// with u joins the episode (budget permitting), but a key changes only
// for pins whose FM term on that net changed, and for pins newly entering
// the pass. With fs and ft the net's pins now left on u's old side and on
// its new side, a pin on the old side gains c·[fs = 1] (it became its
// side's lone pin) plus c·[ft = 1] (the side it would join stopped being
// empty); a pin on the new side loses c·[fs = 0] (the side it would join
// became empty) plus c·[ft = 2] (it stopped being lone). Any other pin's
// gain is bitwise unchanged, so its key stays exact and selection order,
// and the partition, is that of recomputing every pin.
//
// Under integer costs (exactCosts) a changed pin's key moves by exactly
// that delta: every key is its pin's current FM gain, an integer below
// 2^53 like the delta, so key + delta is the recomputed gain bit for bit.
// A gain costs O(degree), ruinous when the pin is a coarse cluster with
// an adopted list of thousands of nets. Under fractional costs the pin's
// gain is recomputed instead. A pin that enters the episode here is keyed
// once, by a full gain after all of u's nets are walked: a delta from a
// later net of u would count that net twice.
func (l *Localized) rescore(u int) {
	u32 := int32(u)
	to := l.side[u]
	from := to ^ 1
	full := len(l.active) >= maxActive
	first := len(l.active)
	for _, e := range l.c.NetsOf(u) {
		if l.c.NetSize(int(e)) < 2 {
			continue
		}
		fs, ft := l.pinCount[from][e], l.pinCount[to][e]
		cost := l.c.NetCost(int(e))
		var dFrom, dTo float64
		if fs == 1 {
			dFrom += cost
		}
		if ft == 1 {
			dFrom += cost
		}
		if fs == 0 {
			dTo -= cost
		}
		if ft == 2 {
			dTo -= cost
		}
		if full && dFrom == 0 && dTo == 0 {
			continue // no key changes and no pin can join
		}
		for _, w := range l.c.Net(int(e)) {
			if w == u32 || l.stamp[w] == l.lock {
				continue
			}
			if l.activate(w); l.stamp[w] < l.epoch {
				continue // activation budget hit
			}
			d := dFrom
			if l.side[w] == to {
				d = dTo
			}
			h := l.heap[l.side[w]]
			if d == 0 || !h.Contains(int(w)) {
				continue // unchanged, or entered the episode in this call
			}
			if l.exact {
				h.Insert(int(w), h.Gain(int(w))+d)
			} else {
				h.Insert(int(w), l.gain(int(w)))
			}
		}
	}
	for _, w := range l.active[first:] {
		l.heap[l.side[w]].Insert(int(w), l.gain(int(w)))
	}
}

// countMovable starts the bound: it counts each live net's movable pins
// per side over the active set and sums reach once. At most maxActive
// pins are movable, so the counts fit in uint16.
func (l *Localized) countMovable() {
	for _, u := range l.active {
		if l.stamp[u] == l.lock {
			continue
		}
		s := l.side[u]
		for _, e := range l.c.NetsOf(int(u)) {
			if l.c.NetSize(int(e)) < 2 {
				continue
			}
			if l.movable[0][e] == 0 && l.movable[1][e] == 0 {
				l.counted = append(l.counted, e)
			}
			l.movable[s][e]++
		}
	}
	l.reach = 0
	for _, e := range l.counted {
		l.reach += l.reachOf(e)
	}
	l.bounded = true
}

// retire takes u, about to move, out of the movable counts and its live
// nets' shares out of reach; addReach puts the shares back after the
// move. No other net's share changes.
func (l *Localized) retire(u int) {
	s := l.side[u]
	for _, e := range l.c.NetsOf(u) {
		if l.c.NetSize(int(e)) >= 2 {
			l.reach -= l.reachOf(e)
			l.movable[s][e]--
		}
	}
}

func (l *Localized) addReach(u int) {
	for _, e := range l.c.NetsOf(u) {
		if l.c.NetSize(int(e)) >= 2 {
			l.reach += l.reachOf(e)
		}
	}
}

// reachOf is net e's share of the bound: its cost if it is cut and every
// pin on one of its sides is movable, else 0.
func (l *Localized) reachOf(e int32) float64 {
	c0, c1 := l.pinCount[0][e], l.pinCount[1][e]
	if c0 > 0 && c1 > 0 && (int32(l.movable[0][e]) == c0 || int32(l.movable[1][e]) == c1) {
		return l.c.NetCost(int(e))
	}
	return 0
}

// selectBest mirrors the engine's two-container selection: each side's
// best feasible candidate, ties to side 0.
//
// A side is scanned only if a move off it can land inside the window:
// every node weighs at least minW, so leaving side 0 takes side 0 to at
// most sideW[0]−minW, and leaving side 1 takes it to at least
// sideW[0]+minW. The gate tests only that one bound per side: a heavier
// node can still bring side 0 back inside when it is overfull (moving off
// side 0) or underfull (moving off side 1), so a two-sided test would
// skip feasible moves on a contracted level.
func (l *Localized) selectBest() (int, bool) {
	lo, hi := l.Bal.Bounds(l.total)
	var u0, u1 int
	var ok0, ok1 bool
	if l.sideW[0]-l.minW >= lo-l.Slack {
		u0, ok0 = heapContainer{l.heap[0]}.FirstFeasible(l.feas)
	}
	if l.sideW[0]+l.minW <= hi+l.Slack {
		u1, ok1 = heapContainer{l.heap[1]}.FirstFeasible(l.feas)
	}
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

// Refine runs the accumulated seeds to convergence (at most maxPasses
// passes) and clears the seed set. Returns the pass/move/kept outcome.
func (l *Localized) Refine(maxPasses int) Outcome {
	if !l.startEpisode() {
		return Outcome{}
	}
	return Run(l, maxPasses, nil, 0, nil)
}

// startEpisode makes the pending seeds the new episode's active set and
// clears them. It reports false, starting nothing, when none are pending.
func (l *Localized) startEpisode() bool {
	if len(l.pending) == 0 {
		return false
	}
	l.lock++
	l.epoch = l.lock
	l.active = l.active[:0]
	for _, u := range l.pending {
		l.activate(u)
	}
	l.pending = l.pending[:0]
	return true
}
