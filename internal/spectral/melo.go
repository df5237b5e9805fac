package spectral

import (
	"math"

	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// eigenvectors is the number of non-trivial eigenvectors d used for the
// spectral embedding (Alpert–Yao: "the more the better").
const eigenvectors = 5

// MELOConfig controls the multiple-eigenvector linear-ordering partitioner.
type MELOConfig struct {
	Balance partition.Balance
	Seed    int64
}

// MELOResult reports the outcome.
type MELOResult struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	// Eigenvalues of the embedding, ascending.
	Eigenvalues []float64
}

// MELO implements the Alpert–Yao DAC-95 approach compared against in
// Table 3: embed the nodes with d Laplacian eigenvectors (each scaled by
// 1/√λ so smoother modes dominate, following the spectral-placement
// weighting), construct a single linear ordering of the vertices by a
// greedy nearest-neighbor chain through the embedding, and sweep that
// ordering for the best feasible split.
func MELO(h *hypergraph.Hypergraph, cfg MELOConfig) (MELOResult, error) {
	d := eigenvectors
	n := h.NumNodes()
	if d > n-2 {
		d = n - 2
	}
	if d < 1 {
		d = 1
	}
	l := NewLaplacian(hypergraph.CliqueExpand(h))
	eig, err := SmallestEigenpairs(l, d, cfg.Seed)
	if err != nil {
		return MELOResult{}, err
	}
	// Embedding: coords[u][j] = v_j[u] / sqrt(lambda_j).
	coords := make([][]float64, n)
	flat := make([]float64, n*d)
	for u := 0; u < n; u++ {
		coords[u] = flat[u*d : (u+1)*d]
	}
	for j := 0; j < d; j++ {
		scale := 1.0
		if eig.Values[j] > 1e-12 {
			scale = 1 / math.Sqrt(eig.Values[j])
		}
		for u := 0; u < n; u++ {
			coords[u][j] = eig.Vectors[j][u] * scale
		}
	}
	order := chainOrder(coords)
	sides, cut, err := partition.SweepCut(h, order, cfg.Balance)
	if err != nil {
		return MELOResult{}, err
	}
	b, err := partition.NewBisection(h, sides)
	if err != nil {
		return MELOResult{}, err
	}
	return MELOResult{
		Sides:       sides,
		CutCost:     cut,
		CutNets:     b.CutNets(),
		Eigenvalues: eig.Values,
	}, nil
}

// chainOrder builds a linear ordering by greedy nearest-neighbor chaining:
// start from the point farthest from the centroid (an extreme vertex of the
// embedding) and repeatedly append the nearest unvisited point. O(n²·d).
func chainOrder(coords [][]float64) []int {
	n := len(coords)
	d := len(coords[0])
	centroid := make([]float64, d)
	for _, c := range coords {
		for j, x := range c {
			centroid[j] += x
		}
	}
	for j := range centroid {
		centroid[j] /= float64(n)
	}
	start, bestD := 0, -1.0
	for u, c := range coords {
		if dd := sqDist(c, centroid); dd > bestD {
			start, bestD = u, dd
		}
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	cur := start
	used[cur] = true
	order = append(order, cur)
	for len(order) < n {
		next, nd := -1, math.Inf(1)
		cc := coords[cur]
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			if dd := sqDist(cc, coords[v]); dd < nd {
				next, nd = v, dd
			}
		}
		used[next] = true
		order = append(order, next)
		cur = next
	}
	return order
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
