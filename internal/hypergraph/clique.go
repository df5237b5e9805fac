package hypergraph

import "sort"

// Edge is one weighted arc of a clique-expanded graph.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a weighted undirected graph in adjacency-list form, the standard
// clique-expansion model of a netlist used by the graph-based baselines
// (Kernighan–Lin, spectral methods, quadratic placement).
type Graph struct {
	Adj [][]Edge
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Adj) }

// CliqueExpand converts the hypergraph to a graph using the standard
// 1/(|e|−1) clique model: a net e of cost c and size q contributes an edge
// of weight c/(q−1) between every pin pair, so that cutting the net in two
// contributes roughly c to the graph cut. Parallel edges between the same
// pair are merged by summing weights.
func CliqueExpand(h *Hypergraph) *Graph {
	n := h.NumNodes()
	adj := make([][]Edge, n)
	for e := 0; e < h.NumNets(); e++ {
		ps := h.Net(e)
		q := len(ps)
		w := h.NetCost(e) / float64(q-1)
		for i := 0; i < q; i++ {
			for j := i + 1; j < q; j++ {
				adj[ps[i]] = append(adj[ps[i]], Edge{int(ps[j]), w})
				adj[ps[j]] = append(adj[ps[j]], Edge{int(ps[i]), w})
			}
		}
	}
	for u := range adj {
		a := adj[u]
		sort.Slice(a, func(i, j int) bool { return a[i].To < a[j].To })
		out := a[:0]
		for _, e := range a {
			if len(out) > 0 && out[len(out)-1].To == e.To {
				out[len(out)-1].Weight += e.Weight
			} else {
				out = append(out, e)
			}
		}
		adj[u] = out
	}
	return &Graph{Adj: adj}
}

// CutWeight returns the total weight of graph edges crossing the 0/1 side
// assignment (each undirected edge counted once).
func (g *Graph) CutWeight(side []uint8) float64 {
	var cut float64
	for u := range g.Adj {
		for _, e := range g.Adj[u] {
			if u < e.To && side[u] != side[e.To] {
				cut += e.Weight
			}
		}
	}
	return cut
}
