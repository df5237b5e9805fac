package partition

import (
	"fmt"

	"prop/internal/hypergraph"
)

// Bisection tracks a 2-way partition of a hypergraph with incremental cut
// maintenance: per-net pin counts on each side, total cut cost and cut net
// count, and per-side node weights. All iterative partitioners (FM, LA,
// PROP) mutate one of these via Move.
type Bisection struct {
	H          *hypergraph.Hypergraph
	side       []uint8
	pinCount   [2][]int32 // pinCount[s][e]: pins of net e on side s
	sideWeight [2]int64
	cutCost    float64
	cutNets    int
	maxW       int64 // maximum node weight: the FM balance tolerance
	minW       int64 // minimum node weight: the CanMoveFrom pre-check
}

// NewBisection builds the tracker for the given side assignment (values
// must be 0 or 1; the slice is copied).
func NewBisection(h *hypergraph.Hypergraph, side []uint8) (*Bisection, error) {
	if len(side) != h.NumNodes() {
		return nil, fmt.Errorf("partition: side slice has %d entries for %d nodes", len(side), h.NumNodes())
	}
	b := &Bisection{
		H:    h,
		side: append([]uint8(nil), side...),
	}
	b.pinCount[0] = make([]int32, h.NumNets())
	b.pinCount[1] = make([]int32, h.NumNets())
	for u, s := range b.side {
		if s > 1 {
			return nil, fmt.Errorf("partition: node %d has side %d, want 0 or 1", u, s)
		}
		if w := h.NodeWeight(u); w > b.maxW {
			b.maxW = w
		}
		if w := h.NodeWeight(u); b.minW == 0 || w < b.minW {
			b.minW = w
		}
		b.sideWeight[s] += h.NodeWeight(u)
		for _, e := range h.NetsOf(u) {
			b.pinCount[s][e]++
		}
	}
	for e := 0; e < h.NumNets(); e++ {
		if b.pinCount[0][e] > 0 && b.pinCount[1][e] > 0 {
			b.cutNets++
			b.cutCost += h.NetCost(e)
		}
	}
	return b, nil
}

// Side returns the side (0 or 1) of node u.
func (b *Bisection) Side(u int) uint8 { return b.side[u] }

// Sides returns a copy of the current side assignment.
func (b *Bisection) Sides() []uint8 { return append([]uint8(nil), b.side...) }

// PinCount returns the number of pins of net e on side s.
func (b *Bisection) PinCount(s uint8, e int) int { return int(b.pinCount[s][e]) }

// SideView returns the live side-assignment vector itself (not a copy) so
// hot loops can hoist it into a local. The caller must treat it as
// read-only; it is invalidated semantically by Move.
func (b *Bisection) SideView() []uint8 { return b.side }

// PinCountView returns the live per-net pin-count vector of side s (not a
// copy). Read-only for callers, like SideView.
func (b *Bisection) PinCountView(s uint8) []int32 { return b.pinCount[s] }

// SideWeight returns the total node weight on side s.
func (b *Bisection) SideWeight(s uint8) int64 { return b.sideWeight[s] }

// CutCost returns the current Σ c(e) over cut nets.
func (b *Bisection) CutCost() float64 { return b.cutCost }

// CutNets returns the number of nets in the cutset.
func (b *Bisection) CutNets() int { return b.cutNets }

// IsCut reports whether net e currently has pins on both sides.
func (b *Bisection) IsCut(e int) bool {
	return b.pinCount[0][e] > 0 && b.pinCount[1][e] > 0
}

// Gain returns the deterministic FM gain of node u (Eqn. 1 of the paper):
// Σ c(e) over nets where u is the sole pin on its side, minus Σ c(e) over
// nets lying entirely on u's side.
func (b *Bisection) Gain(u int) float64 {
	s := b.side[u]
	t := 1 - s
	costs := b.H.NetCosts()
	var g float64
	for _, e := range b.H.NetsOf(u) {
		switch {
		case b.pinCount[s][e] == 1:
			g += costs[e]
		case b.pinCount[t][e] == 0:
			g -= costs[e]
		}
	}
	return g
}

// CanMove reports whether moving u keeps side 0 within bal, using the
// classic FM tolerance of one maximum-weight cell (see
// Balance.FeasibleWithSlack).
func (b *Bisection) CanMove(u int, bal Balance) bool {
	return b.canShift(b.side[u], b.H.NodeWeight(u), bal)
}

// MaxNodeWeight returns the balance tolerance (largest node weight).
func (b *Bisection) MaxNodeWeight() int64 { return b.maxW }

// CanMoveFrom reports whether moving even the lightest node off side s
// could satisfy bal — a side-level pre-check that lets selection loops
// skip scanning a side pinned at its balance bound (without it, every
// move at the bound degenerates into a full scan of the blocked side and
// passes go quadratic). With unit node weights the check is exact.
func (b *Bisection) CanMoveFrom(s uint8, bal Balance) bool {
	return b.canShift(s, b.minW, bal)
}

// canShift reports whether moving weight w off side s keeps side 0 within
// bal under the one-cell slack.
func (b *Bisection) canShift(s uint8, w int64, bal Balance) bool {
	w0 := b.sideWeight[0] - w
	if s == 1 {
		w0 = b.sideWeight[0] + w
	}
	return bal.FeasibleWithSlack(w0, b.sideWeight[0]+b.sideWeight[1], b.maxW)
}

// Move flips node u to the other side, updating pin counts and cut cost
// incrementally, and returns the immediate gain (decrease in cut cost; may
// be negative).
func (b *Bisection) Move(u int) float64 {
	before := b.cutCost
	s := b.side[u]
	t := 1 - s
	w := b.H.NodeWeight(u)
	costs := b.H.NetCosts()
	for _, e := range b.H.NetsOf(u) {
		cs, ct := b.pinCount[s][e], b.pinCount[t][e]
		// Transition of net e: (cs, ct) -> (cs-1, ct+1).
		if cs == 1 && ct > 0 {
			// Net leaves the cutset.
			b.cutNets--
			b.cutCost -= costs[e]
		} else if ct == 0 && cs > 1 {
			// Net enters the cutset.
			b.cutNets++
			b.cutCost += costs[e]
		}
		b.pinCount[s][e] = cs - 1
		b.pinCount[t][e] = ct + 1
	}
	b.side[u] = t
	b.sideWeight[s] -= w
	b.sideWeight[t] += w
	return before - b.cutCost
}

// RecountCut recomputes the cut from scratch; used by tests and Verify to
// check the incremental bookkeeping.
func (b *Bisection) RecountCut() (cost float64, nets int) {
	for e := 0; e < b.H.NumNets(); e++ {
		on := [2]bool{}
		for _, u := range b.H.Net(e) {
			on[b.side[u]] = true
		}
		if on[0] && on[1] {
			nets++
			cost += b.H.NetCost(e)
		}
	}
	return cost, nets
}

// Verify checks all incremental invariants (pin counts, side weights, cut
// cost within floating tolerance, cut net count) against a full recount.
func (b *Bisection) Verify() error {
	cost, nets := b.RecountCut()
	if nets != b.cutNets {
		return fmt.Errorf("partition: cut net count %d, recount %d", b.cutNets, nets)
	}
	if d := cost - b.cutCost; d > 1e-6 || d < -1e-6 {
		return fmt.Errorf("partition: cut cost %g, recount %g", b.cutCost, cost)
	}
	var w [2]int64
	for u, s := range b.side {
		w[s] += b.H.NodeWeight(u)
	}
	if w != b.sideWeight {
		return fmt.Errorf("partition: side weights %v, recount %v", b.sideWeight, w)
	}
	for e := 0; e < b.H.NumNets(); e++ {
		var c [2]int32
		for _, u := range b.H.Net(e) {
			c[b.side[u]]++
		}
		if c[0] != b.pinCount[0][e] || c[1] != b.pinCount[1][e] {
			return fmt.Errorf("partition: net %d pin counts (%d,%d), recount (%d,%d)",
				e, b.pinCount[0][e], b.pinCount[1][e], c[0], c[1])
		}
	}
	return nil
}
