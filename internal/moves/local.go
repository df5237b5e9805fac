package moves

import (
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
// moves. Feasibility uses the base graph's maximum node weight as constant
// slack, the same window the V-cycle grants its per-level refiners;
// depth-0 callers tighten the final result with a standard repair + full
// refine.
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

	heap      [2]*ds.GainHeap
	pos       []int32          // shared by both heaps (disjoint membership)
	feas      func(u int) bool // l.feasible, bound once: no per-scan closure
	locked    []int32          // stamped with lockEpoch: one move per node per pass
	touched   []int32          // stamped with epoch: episode active-set membership
	epoch     int32            // bumped per Refine episode
	lockEpoch int32            // bumped per pass

	active  []int32 // nodes eligible for this episode's containers
	pending []int32 // seeds accumulated since the last Refine
	log     PassLog
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
		locked:   make([]int32, n),
		touched:  make([]int32, n),
	}
	ds.FillAbsent(l.pos)
	l.heap[0] = ds.NewSharedGainHeap(l.pos)
	l.heap[1] = ds.NewSharedGainHeap(l.pos)
	l.feas = l.feasible
	l.Resync()
	return l
}

// Resync recounts the incremental state from the view and the side
// assignment: per-net side pin counts over active pins, side weights over
// alive nodes (dead nodes carry no weight and sit in no active pin), and
// the exact cut. Call it after sides moved behind the refiner's back, with
// no seeds pending. Nothing else needs resetting: the epoch stamps only
// grow and each pass clears the heaps. Runs in O(pins + nodes).
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
func (l *Localized) Uncontracted(u, v int, caseA []int32) {
	s := l.side[u]
	l.side[v] = s
	pc := l.pinCount[s]
	for _, e := range caseA {
		pc[e]++
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
	if l.touched[u] == l.epoch || len(l.active) >= maxActive {
		return
	}
	l.touched[u] = l.epoch
	l.active = append(l.active, u)
}

// Algo implements PassRunner.
func (l *Localized) Algo() string { return "local-fm" }

// Cut implements PassRunner.
func (l *Localized) Cut() float64 { return l.cut }

// RunPass implements PassRunner: one boundary-localized FM pass over the
// episode's active set, with prefix-max rollback.
func (l *Localized) RunPass() (float64, int, int) {
	// Locks are per pass: re-arm them without disturbing the episode's
	// active-set stamps (which use the episode epoch, set by Refine).
	l.lockEpoch++
	l.log.Reset()
	l.heap[0].Clear()
	l.heap[1].Clear()
	for _, u := range l.active {
		l.heap[l.side[u]].Insert(int(u), l.gain(int(u)))
	}
	for l.heap[0].Len()+l.heap[1].Len() > 0 {
		u, ok := l.selectBest()
		if !ok {
			break
		}
		l.heap[l.side[u]].Delete(u)
		l.locked[u] = l.lockEpoch
		imm := l.move(u)
		l.log.Record(u, imm)
		// Expansion + neighbor refresh. Every unlocked active pin sharing a
		// live net with u joins the episode (budget permitting), but a gain
		// recompute — O(degree(w)), ruinous when w is a coarse cluster with
		// an adopted list of thousands of nets — happens only when it can
		// change the value: on nets where the move crossed a lone-pin or
		// empty-side threshold (FM's critical nets), and for nodes newly
		// entering the pass. Skipped nodes keep their heap entry, which is
		// stale only in age: a pin-count change on a non-critical net leaves
		// every other pin's gain bitwise unchanged, so selection order — and
		// therefore the partition — is identical to always-recompute.
		u32 := int32(u)
		for _, e := range l.c.NetsOf(u) {
			if l.c.NetSize(int(e)) < 2 {
				continue
			}
			// Post-move counts: u left `from` (now fs) and joined `to` (now
			// ft ≥ 1). Critical iff pre-move from ∈ {1, 2} or to ∈ {0, 1}.
			from := l.side[u] ^ 1
			fs, ft := l.pinCount[from][e], l.pinCount[from^1][e]
			critical := fs <= 1 || ft <= 2
			for _, w := range l.c.Net(int(e)) {
				if w == u32 || l.locked[w] == l.lockEpoch {
					continue
				}
				fresh := l.touched[w] != l.epoch
				l.activate(w)
				if l.touched[w] != l.epoch {
					continue // activation budget hit
				}
				if critical || fresh {
					l.heap[l.side[w]].Insert(int(w), l.gain(int(w)))
				}
			}
		}
	}
	p, gmax := l.log.BestPrefix()
	l.log.RollbackWith(p, func(_, node int) { l.move(node) })
	return gmax, l.log.Len(), p
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
	if len(l.pending) == 0 {
		return Outcome{}
	}
	l.epoch++
	l.active = l.active[:0]
	for _, u := range l.pending {
		l.activate(u)
	}
	l.pending = l.pending[:0]
	out := Run(l, maxPasses, nil, 0, nil)
	return out
}
