package partition

import (
	"fmt"

	"prop/internal/hypergraph"
)

// SweepCut evaluates every prefix of the given node ordering as side 0 and
// returns the minimum-cut split whose side weights satisfy bal (under the
// one-cell slack every partitioner here uses). This is the standard final
// stage of spectral and placement-based partitioners: sort nodes along an
// embedding, cut at the best point.
func SweepCut(h *hypergraph.Hypergraph, order []int, bal Balance) ([]uint8, float64, error) {
	if len(order) != h.NumNodes() {
		return nil, 0, fmt.Errorf("partition: sweep order has %d entries for %d nodes", len(order), h.NumNodes())
	}
	if err := bal.Validate(); err != nil {
		return nil, 0, err
	}
	all1 := make([]uint8, h.NumNodes())
	for i := range all1 {
		all1[i] = 1
	}
	b, err := NewBisection(h, all1)
	if err != nil {
		return nil, 0, err
	}
	total := h.TotalNodeWeight()
	bestPrefix, bestCut, found := -1, 0.0, false
	for i, u := range order {
		b.Move(u)
		if !bal.FeasibleWithSlack(b.SideWeight(0), total, b.MaxNodeWeight()) {
			continue
		}
		if cut := b.CutCost(); !found || cut < bestCut {
			found = true
			bestCut = cut
			bestPrefix = i
		}
	}
	if !found {
		return nil, 0, fmt.Errorf("partition: no feasible sweep split for balance %v", bal)
	}
	sides := make([]uint8, h.NumNodes())
	for i := range sides {
		sides[i] = 1
	}
	for i := 0; i <= bestPrefix; i++ {
		sides[order[i]] = 0
	}
	// Recount the chosen split: the incremental cut can carry float drift.
	bb, err := NewBisection(h, sides)
	if err != nil {
		return nil, 0, err
	}
	return sides, bb.CutCost(), nil
}
