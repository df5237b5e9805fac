// Package window implements the WINDOW clustering-based partitioner
// compared against in Table 2 of the PROP paper (Alpert–Kahng, ICCAD 1994:
// vertex orderings with windowed splits, followed by FM). The pipeline:
// (1) a max-attraction vertex ordering of the clique-expanded netlist
// (each step appends the unvisited node most strongly connected to the
// ordered prefix); (2) a sweep over the ordering picks the best feasible
// split — the "window" boundary; (3) per the paper's Table-2 note, the
// clustered split seeds 20 runs of FM (here: the unperturbed split plus
// randomly perturbed variants), keeping the best.
package window

import (
	"container/heap"
	"fmt"
	"math/rand"

	"prop/internal/fm"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// perturbFrac is the fraction of nodes flipped (in balanced pairs) to
// diversify FM runs 2..Runs.
const perturbFrac = 0.05

// Config controls the WINDOW partitioner.
type Config struct {
	Balance partition.Balance
	// Runs is the number of FM runs seeded from the clustered split (0
	// selects the paper's 20).
	Runs int
	Seed int64
}

// Result reports the outcome.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	// OrderingCut is the sweep cut before FM refinement.
	OrderingCut float64
}

// Partition runs the WINDOW pipeline.
func Partition(h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Runs == 0 {
		cfg.Runs = 20
	}
	g := hypergraph.CliqueExpand(h)
	order, err := maxAttractionOrder(g)
	if err != nil {
		return Result{}, err
	}
	seed, orderingCut, err := partition.SweepCut(h, order, cfg.Balance)
	if err != nil {
		return Result{}, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var best Result
	best.OrderingCut = orderingCut
	best.CutCost = -1
	for r := 0; r < cfg.Runs; r++ {
		sides := append([]uint8(nil), seed...)
		if r > 0 {
			perturb(sides, perturbFrac, rng)
		}
		b, err := partition.NewBisection(h, sides)
		if err != nil {
			return Result{}, err
		}
		res, err := fm.Partition(b, fm.Config{Balance: cfg.Balance, Selector: fm.Bucket})
		if err != nil {
			return Result{}, err
		}
		if best.CutCost < 0 || res.CutCost < best.CutCost {
			best.Sides = res.Sides
			best.CutCost = res.CutCost
			best.CutNets = res.CutNets
		}
	}
	return best, nil
}

// perturb flips pairs of nodes on opposite sides, preserving side counts
// (and exactly preserving balance for unit weights).
func perturb(sides []uint8, frac float64, rng *rand.Rand) {
	n := len(sides)
	pairs := int(frac * float64(n) / 2)
	for i := 0; i < pairs; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if sides[a] != sides[b] {
			sides[a], sides[b] = sides[b], sides[a]
		}
	}
}

// maxAttractionOrder produces the vertex ordering: start from a node on
// the periphery (two-sweep BFS) and repeatedly append the unvisited node
// with the largest total edge weight into the visited prefix.
func maxAttractionOrder(g *hypergraph.Graph) ([]int, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("window: empty graph")
	}
	start := bfsFarthest(g, bfsFarthest(g, 0))
	attract := make([]float64, n)
	visited := make([]bool, n)
	pq := &attractionHeap{}
	heap.Init(pq)
	order := make([]int, 0, n)

	push := func(u int) {
		heap.Push(pq, heapItem{u, attract[u]})
	}
	visit := func(u int) {
		visited[u] = true
		order = append(order, u)
		for _, e := range g.Adj[u] {
			if !visited[e.To] {
				attract[e.To] += e.Weight
				push(e.To)
			}
		}
	}
	visit(start)
	for len(order) < n {
		u := -1
		for pq.Len() > 0 {
			it := heap.Pop(pq).(heapItem)
			// Lazy deletion: skip stale or visited entries.
			if !visited[it.node] && it.key == attract[it.node] {
				u = it.node
				break
			}
		}
		if u < 0 {
			// Disconnected component: pick the lowest unvisited node.
			for v := 0; v < n; v++ {
				if !visited[v] {
					u = v
					break
				}
			}
		}
		visit(u)
	}
	return order, nil
}

func bfsFarthest(g *hypergraph.Graph, src int) int {
	n := g.NumNodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	q := []int{src}
	dist[src] = 0
	last := src
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		last = u
		for _, e := range g.Adj[u] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				q = append(q, e.To)
			}
		}
	}
	return last
}

type heapItem struct {
	node int
	key  float64
}

type attractionHeap []heapItem

func (h attractionHeap) Len() int           { return len(h) }
func (h attractionHeap) Less(i, j int) bool { return h[i].key > h[j].key }
func (h attractionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *attractionHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *attractionHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
