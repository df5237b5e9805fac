// Package partition provides the shared 2-way partition state used by every
// iterative-improvement partitioner in this repository: side assignments,
// incremental cut maintenance over the hypergraph, and (r1, r2) balance
// criteria. The pass protocol itself (virtual moves + maximum prefix gain
// rollback) lives in internal/moves.
package partition

import (
	"fmt"
	"math"
	"math/rand"

	"prop/internal/hypergraph"
)

// Balance is the (r1, r2) balance criterion of the paper, read as side 0's
// weight window: side 0's weight fraction must lie in [R1, R2], and side 1
// takes the rest. For a symmetric window (R1 = 1 − R2) that is the paper's
// "each side within [R1, R2]"; an asymmetric one aims side 0 off centre, as
// a k-way recursion does when it splits an odd k.
type Balance struct {
	R1, R2 float64
}

// Exact5050 is the 50-50% criterion used in Table 2 (r1 = r2 = 0.5; for odd
// total weight the two sides may differ by the smallest representable
// amount, i.e. ⌊W/2⌋ / ⌈W/2⌉).
func Exact5050() Balance { return Balance{0.5, 0.5} }

// B4555 is the 45-55% criterion used in Table 3.
func B4555() Balance { return Balance{0.45, 0.55} }

// Validate reports whether the criterion is well-formed.
func (b Balance) Validate() error {
	if !(b.R1 > 0 && b.R2 < 1 && b.R1 <= b.R2) {
		return fmt.Errorf("partition: invalid balance (%g, %g): need 0 < r1 ≤ r2 < 1", b.R1, b.R2)
	}
	return nil
}

// Bounds returns the inclusive integer weight range [lo, hi] side 0 may
// occupy for total weight w. When the window holds no integer (r1 = r2 =
// 0.5 and odd w, say) the bounds relax to the two integers around it,
// ⌊r1·w⌋..⌈r2·w⌉, so a feasible bisection always exists.
func (b Balance) Bounds(w int64) (lo, hi int64) {
	lo = int64(math.Ceil(b.R1*float64(w) - 1e-9))
	hi = int64(math.Floor(b.R2*float64(w) + 1e-9))
	if lo > hi { // then lo = hi + 1: ⌈r1·w⌉ and ⌊r2·w⌋ cross
		lo, hi = hi, lo
	}
	if lo < 0 {
		lo = 0
	}
	if hi > w {
		hi = w
	}
	return lo, hi
}

// Feasible reports whether side 0 at weight sw (out of total w) satisfies
// the criterion.
func (b Balance) Feasible(sw, w int64) bool {
	lo, hi := b.Bounds(w)
	return sw >= lo && sw <= hi
}

// FeasibleWithSlack is Feasible with the bounds widened by slack on both
// ends. Iterative partitioners use slack = the maximum node weight, the
// classic FM move-legality tolerance: with exact 50-50 balance and an even
// total, no strict-bounds move exists at all, so sides are allowed to
// oscillate within one cell of the target during (and at the end of) a
// pass.
func (b Balance) FeasibleWithSlack(sw, w, slack int64) bool {
	lo, hi := b.Bounds(w)
	return sw >= lo-slack && sw <= hi+slack
}

// String implements fmt.Stringer ("50-50%", "45-55%", or the raw bounds).
func (b Balance) String() string {
	return fmt.Sprintf("%.0f-%.0f%%", b.R1*100, b.R2*100)
}

// RandomSides returns a random side assignment satisfying bal: nodes are
// shuffled and greedily packed into side 0 until its weight reaches the
// midpoint of side 0's window. With unit node weights this yields the
// paper's random initial bisections.
func RandomSides(h *hypergraph.Hypergraph, bal Balance, rng *rand.Rand) []uint8 {
	n := h.NumNodes()
	perm := rng.Perm(n)
	side := make([]uint8, n)
	lo, hi := bal.Bounds(h.TotalNodeWeight())
	target := (lo + hi) / 2
	var w0 int64
	for _, u := range perm {
		if w0+h.NodeWeight(u) <= target {
			w0 += h.NodeWeight(u)
		} else {
			side[u] = 1
		}
	}
	return side
}
