package cluster

import (
	"fmt"
	"math/rand"

	"prop/internal/hypergraph"
	"prop/internal/obs"
)

// CoarsenInPlace shrinks a Contracted view to at most target alive nodes
// by heavy-edge matching, contracting each matched pair as soon as it is
// rated — the n-level hierarchy. It rates like CoarsenRounds but walks
// u's net list in its stored order.
//
// Each round shuffles the node order (deterministically in seed), rates
// every still-unmatched alive node against its alive neighbors, and
// contracts the best-rated pair whose combined weight stays under the
// cluster cap — 4× the average target-cluster weight, which keeps any one
// cluster from swallowing a balance-infeasible share of the circuit.
// Rounds repeat until the target is reached or a round makes no progress
// (cap-bound or net-free remainder); the caller sees the stall as a
// larger-than-target coarsest level, not an error.
//
// When sides is non-nil only pairs on the same side are contracted, so a
// partition of the fine graph survives coarsening exactly (every cluster
// lies within one side, cut and side weights unchanged). This is the
// recoarsening step of iterated n-level cycles.
func CoarsenInPlace(c *hypergraph.Contracted, target int, seed int64, sides []uint8, tr *obs.Tracer, run int) error {
	if target < 2 {
		return fmt.Errorf("cluster: target %d, want ≥ 2", target)
	}
	n := c.NumNodes()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	r := newRater(c)
	matched := make([]bool, n)

	var total int64
	for u := 0; u < n; u++ {
		if c.Alive(u) {
			total += c.NodeWeight(u)
		}
	}
	weightCap := max(4*total/int64(target), 1)

	rng := rand.New(rand.NewSource(seed))
	for round := 0; c.AliveCount() > target; round++ {
		sp := tr.StartPhaseLevel(run, "coarsen", round)
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		clear(matched)
		progress := 0
		for _, u := range perm {
			if c.AliveCount() <= target {
				break
			}
			if !c.Alive(int(u)) || matched[u] {
				continue
			}
			best := r.best(u, c.NetsOf(int(u)), matched, sides)
			if best < 0 || c.NodeWeight(int(u))+c.NodeWeight(int(best)) > weightCap {
				continue
			}
			c.Contract(u, best)
			matched[u] = true
			progress++
		}
		sp.End()
		if progress == 0 {
			break
		}
	}
	return nil
}
