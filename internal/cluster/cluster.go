// Package cluster provides heavy-edge matching coarsening — the
// "clustering initial phase" the paper's §5 proposes combining with PROP,
// which internal/multilevel builds on. Every hierarchy is a
// hypergraph.Contracted view coarsened in place, one memento per
// contracted pair: CoarsenRounds matches whole rounds against a fixed
// level (the V-cycle), CoarsenInPlace contracts each pair as soon as it is
// rated (the n-level hierarchy).
package cluster

import (
	"fmt"
	"math/rand"
	"slices"

	"prop/internal/hypergraph"
	"prop/internal/obs"
)

// rater scores the heavy-edge affinity w(u,v) = Σ cost(e)/(|e|−1) over the
// live nets u and v share, with epoch-stamped accumulators: rating a node
// costs O(Σ |e|) over its nets and no per-node map churn.
type rater struct {
	c     *hypergraph.Contracted
	stamp []int32
	acc   []float64
	cand  []int32
	scan  int32
}

func newRater(c *hypergraph.Contracted) rater {
	return rater{c: c, stamp: make([]int32, c.NumNodes()), acc: make([]float64, c.NumNodes())}
}

// best returns u's highest-rated partner over the nets in nets (u's net
// list, in the order the sums accumulate), or -1. Matched nodes are
// skipped and, when sides is non-nil, so are nodes on the other side. Ties
// go to the smaller ID.
func (r *rater) best(u int32, nets []int32, matched []bool, sides []uint8) int32 {
	c := r.c
	r.scan++
	r.cand = r.cand[:0]
	for _, e := range nets {
		size := c.NetSize(int(e))
		if size < 2 {
			continue
		}
		w := c.NetCost(int(e)) / float64(size-1)
		for _, v := range c.Net(int(e)) {
			if v == u || matched[v] || (sides != nil && sides[v] != sides[u]) {
				continue
			}
			if r.stamp[v] != r.scan {
				r.stamp[v] = r.scan
				r.acc[v] = 0
				r.cand = append(r.cand, v)
			}
			r.acc[v] += w
		}
	}
	best, bw := int32(-1), 0.0
	for _, v := range r.cand {
		if a := r.acc[v]; a > bw || (a == bw && best >= 0 && v < best) {
			best, bw = v, a
		}
	}
	return best
}

// CoarsenRounds coarsens c by whole heavy-edge matching rounds until at
// most target nodes are alive or a round matches nothing, and returns the
// depth after each round: V-cycle level i+1 is c at depth bounds[i], level
// 0 the base graph. One "coarsen" span covers each round, including a
// final round that matches nothing.
//
// A round rates against the level as it stood when the round began and
// contracts its pairs only once the whole matching is picked, keeping the
// smaller ID of each pair alive. It visits the alive IDs, taken in
// ascending order, in rng.Perm order from one generator seeded once, sums
// ratings in ascending net ID and caps no cluster weight. Together these
// make every materialized level the graph classic copy-per-level matching
// builds, bit for bit — CoarseGraph numbers alive nodes by ascending ID,
// which is that renumbering once the smaller ID survives — and the
// V-cycle goldens pin it.
func CoarsenRounds(c *hypergraph.Contracted, target int, seed int64, tr *obs.Tracer, run int) ([]int, error) {
	if target < 2 {
		return nil, fmt.Errorf("cluster: target %d, want ≥ 2", target)
	}
	n := c.NumNodes()
	r := newRater(c)
	matched := make([]bool, n)

	rng := rand.New(rand.NewSource(seed))
	var bounds []int
	var alive, sorted []int32
	var pairs []hypergraph.Memento
	for c.AliveCount() > target {
		sp := tr.StartPhaseLevel(run, "coarsen", len(bounds))
		alive = alive[:0]
		for u := 0; u < n; u++ {
			if c.Alive(u) {
				alive = append(alive, int32(u))
			}
		}
		clear(matched)
		pairs = pairs[:0]
		for _, i := range rng.Perm(len(alive)) {
			u := alive[i]
			if matched[u] {
				continue
			}
			// Adopted nets trail the base ones; sort so the float sums
			// accumulate in ascending net ID.
			nets := c.NetsOf(int(u))
			if !slices.IsSorted(nets) {
				sorted = append(sorted[:0], nets...)
				slices.Sort(sorted)
				nets = sorted
			}
			if v := r.best(u, nets, matched, nil); v >= 0 {
				matched[u], matched[v] = true, true
				pairs = append(pairs, hypergraph.Memento{U: min(u, v), V: max(u, v)})
			}
		}
		for _, p := range pairs {
			c.Contract(p.U, p.V)
		}
		sp.End()
		if len(pairs) == 0 {
			break
		}
		bounds = append(bounds, c.Depth())
	}
	return bounds, nil
}

// Unwind pops c back to depth; each revived node inherits the side of the
// representative it was merged into, which projects a level's partition
// onto the finer level exactly. sides is indexed by base node ID.
func Unwind(c *hypergraph.Contracted, depth int, sides []uint8) {
	var caseA []int32
	for c.Depth() > depth {
		var m hypergraph.Memento
		m, caseA = c.Uncontract(caseA[:0])
		sides[m.V] = sides[m.U]
	}
}
