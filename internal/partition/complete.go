package partition

import (
	"fmt"
	"sort"

	"prop/internal/hypergraph"
)

// Unassigned marks a node that has no side yet in a partial side
// assignment. CompleteSides places such nodes; everything downstream of it
// only ever sees 0/1.
const Unassigned uint8 = 0xFF

// CompleteSides extends a partial side assignment to a full feasible one:
// entries 0/1 are kept, Unassigned entries are placed greedily by
// connectivity — heaviest node first, each choosing the side holding more
// of its already-assigned neighbor pins (net-cost weighted), biased away
// from a side whose weight bound the placement would break — and the
// result is balance-repaired if the projected assignment itself violates
// bal. This is the warm-start projection step of incremental
// repartitioning: nodes surviving a netlist delta keep their old side,
// new nodes land where they are most attracted.
//
// The placement is a pure function of its inputs (no RNG), so warm starts
// are deterministic at any worker count.
func CompleteSides(h *hypergraph.Hypergraph, sides []uint8, bal Balance) ([]uint8, error) {
	if len(sides) != h.NumNodes() {
		return nil, fmt.Errorf("partition: partial sides has %d entries for %d nodes", len(sides), h.NumNodes())
	}
	if err := bal.Validate(); err != nil {
		return nil, err
	}
	out := append([]uint8(nil), sides...)
	var sw [2]int64
	var unassigned []int
	for u, s := range out {
		switch s {
		case 0, 1:
			sw[s] += h.NodeWeight(u)
		case Unassigned:
			unassigned = append(unassigned, u)
		default:
			return nil, fmt.Errorf("partition: node %d has side %d, want 0, 1, or Unassigned", u, s)
		}
	}
	total := h.TotalNodeWeight()
	lo, hi := bal.Bounds(total)
	limit := [2]int64{hi, total - lo} // each side's weight cap
	// Heaviest first so the big placements happen while both sides still
	// have room; ties resolve by node ID for determinism.
	sort.Slice(unassigned, func(i, j int) bool {
		wi, wj := h.NodeWeight(unassigned[i]), h.NodeWeight(unassigned[j])
		if wi != wj {
			return wi > wj
		}
		return unassigned[i] < unassigned[j]
	})
	costs := h.NetCosts()
	attraction := func(u int) [2]float64 {
		var attract [2]float64
		for _, e := range h.NetsOf(u) {
			c := costs[e]
			for _, v := range h.Net(int(e)) {
				if v == int32(u) {
					continue
				}
				if s := out[v]; s <= 1 {
					attract[s] += c
				}
			}
		}
		return attract
	}
	for _, u := range unassigned {
		attract := attraction(u)
		s := uint8(0)
		switch {
		case attract[1] > attract[0]:
			s = 1
		case attract[1] == attract[0] && sw[1] < sw[0]:
			s = 1
		}
		// Balance bias: never push a side past its upper bound while the
		// other side still has room.
		w := h.NodeWeight(u)
		if sw[s]+w > limit[s] && sw[1-s]+w <= limit[1-s] {
			s = 1 - s
		}
		out[u] = s
		sw[s] += w
	}
	// Local sweeps over the placed nodes: early placements chose sides
	// before their (also-unassigned) neighbors had any, so re-evaluate
	// each against the now-complete assignment and flip where strictly
	// attractive and balance allows. Fixed visit order and iteration
	// cap — deterministic.
	for iter := 0; iter < 2; iter++ {
		improved := false
		for _, u := range unassigned {
			s := out[u]
			attract := attraction(u)
			w := h.NodeWeight(u)
			if attract[1-s] > attract[s] && sw[1-s]+w <= limit[1-s] {
				out[u] = 1 - s
				sw[s] -= w
				sw[1-s] += w
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	// The projection itself may be infeasible (a delta can remove an
	// entire region from one side); repair greedily like multilevel
	// uncoarsening does.
	b, err := NewBisection(h, out)
	if err != nil {
		return nil, err
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), total, b.MaxNodeWeight()) {
		if err := RepairBalance(b, bal); err != nil {
			return nil, err
		}
		return b.Sides(), nil
	}
	return out, nil
}
