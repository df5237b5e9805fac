package spectral

import (
	"sort"

	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// EIG1Config controls the Hagen–Kahng EIG1 partitioner. Hagen–Kahng
// minimize ratio cut; the paper's Table-3 comparison sweeps for the
// minimum cut inside the balance window instead.
type EIG1Config struct {
	Balance partition.Balance
	Seed    int64
}

// EIG1Result reports the outcome.
type EIG1Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	// Fiedler is the second-smallest Laplacian eigenvalue (algebraic
	// connectivity of the clique expansion).
	Fiedler float64
}

// EIG1 computes the Fiedler vector of the clique-expanded Laplacian and
// sweeps the sorted node ordering for the best feasible split — the EIG1
// spectral bisection of Hagen & Kahng (ICCAD 1991) as compared against in
// Table 3 of the PROP paper.
func EIG1(h *hypergraph.Hypergraph, cfg EIG1Config) (EIG1Result, error) {
	l := NewLaplacian(hypergraph.CliqueExpand(h))
	eig, err := SmallestEigenpairs(l, 1, cfg.Seed)
	if err != nil {
		return EIG1Result{}, err
	}
	order := orderByKey(h.NumNodes(), eig.Vectors[0])
	sides, cut, err := partition.SweepCut(h, order, cfg.Balance)
	if err != nil {
		return EIG1Result{}, err
	}
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		return EIG1Result{}, err
	}
	return EIG1Result{
		Sides:   sides,
		CutCost: cut,
		CutNets: b.CutNets(),
		Fiedler: eig.Values[0],
	}, nil
}

// orderByKey returns 0..n−1 sorted ascending by key, with index tie-break
// for determinism.
func orderByKey(n int, key []float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return key[order[i]] < key[order[j]] })
	return order
}
