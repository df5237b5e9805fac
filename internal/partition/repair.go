package partition

import "fmt"

// RepairBalance restores feasibility (under the usual one-cell slack) by
// greedily moving the best-gain node off the heavy side — side 1 when side
// 0 is below its window, side 0 otherwise — until the bounds hold. Multilevel uncoarsening needs this: a partition that satisfies the
// criterion at a coarse level (where the tolerance is one large cluster)
// can violate it at the next finer level, where no single legal move
// exists until balance is restored.
func RepairBalance(b *Bisection, bal Balance) error {
	h := b.H
	total := h.TotalNodeWeight()
	for iter := 0; iter <= h.NumNodes(); iter++ {
		if bal.FeasibleWithSlack(b.SideWeight(0), total, b.MaxNodeWeight()) {
			return nil
		}
		heavy := uint8(0)
		if lo, _ := bal.Bounds(total); b.SideWeight(0) < lo-b.MaxNodeWeight() {
			heavy = 1
		}
		best := -1
		var bestGain float64
		for u := 0; u < h.NumNodes(); u++ {
			if b.Side(u) != heavy {
				continue
			}
			if g := b.Gain(u); best < 0 || g > bestGain {
				best, bestGain = u, g
			}
		}
		if best < 0 {
			break
		}
		b.Move(best)
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), total, b.MaxNodeWeight()) {
		return fmt.Errorf("partition: could not repair balance (side-0 weight %d of %d)",
			b.SideWeight(0), total)
	}
	return nil
}
