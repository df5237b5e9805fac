// Package kl implements the Kernighan–Lin pair-swap graph bisection
// heuristic (Bell System Tech. J., 1970), the ancestor of FM and PROP and
// the background baseline of the paper's §1. The netlist is clique-expanded
// to a weighted graph; each pass virtually swaps locked pairs (a, b)
// maximizing D(a) + D(b) − 2·w(a,b) and keeps the maximum-prefix-gain
// subset of swaps. Pair swaps preserve side sizes exactly, so KL maintains
// perfect balance for unit node weights; for weighted netlists a swap moves
// weight w(b) − w(a) between the sides, so Config.Balance (when set)
// rejects swaps that would leave either side outside the criterion.
//
// Selecting the best pair exactly costs Θ(n²) per step; this implementation
// uses the standard candidate-list optimization, scanning only the top
// candidates nodes of each side by D value, which is exact whenever the
// best pair's members rank within the list (w ≥ 0 bounds the correction
// term) and a high-quality heuristic otherwise.
//
// The pass protocol (locking, prefix-max rollback, convergence, tracing)
// runs on the shared engine (internal/moves); this package is the
// PairPolicy supplying D-value maintenance over the clique expansion.
package kl

import (
	"fmt"
	"sort"

	"prop/internal/hypergraph"
	"prop/internal/moves"
	"prop/internal/obs"
	"prop/internal/partition"
)

// candidates bounds the per-side candidate list BestPair scans.
const candidates = 32

// Config controls a KL run.
type Config struct {
	// Balance, when non-zero, is the (r1, r2) criterion swaps must keep
	// both sides inside (with the classic single-cell slack). The zero
	// value keeps the historical unconstrained behavior, which is exact
	// for unit node weights (swaps preserve side sizes) but can drift on
	// weighted netlists.
	Balance partition.Balance

	// Tracer, when non-nil, receives one event per pass. Observation-only.
	Tracer *obs.Tracer
	// TraceRun labels emitted events with this multi-start run index.
	TraceRun int
}

// Result reports the outcome.
type Result struct {
	Sides   []uint8
	CutCost float64 // hypergraph cut cost of the final partition
	CutNets int
	Passes  int
	Swaps   int
}

// Partition runs KL from the given initial sides (copied, not modified).
// Sides must have equal node counts per side within one node.
func Partition(h *hypergraph.Hypergraph, initial []uint8, cfg Config) (Result, error) {
	n := h.NumNodes()
	if len(initial) != n {
		return Result{}, fmt.Errorf("kl: initial sides has %d entries for %d nodes", len(initial), n)
	}
	if cfg.Balance != (partition.Balance{}) {
		if err := cfg.Balance.Validate(); err != nil {
			return Result{}, err
		}
	}
	e := &engine{
		h:      h,
		g:      hypergraph.CliqueExpand(h),
		cfg:    cfg,
		side:   append([]uint8(nil), initial...),
		d:      make([]float64, n),
		locked: make([]bool, n),
		maxW:   1,
	}
	for u := 0; u < n; u++ {
		w := h.NodeWeight(u)
		e.total += w
		e.sideWeight[e.side[u]] += w
		if w > e.maxW {
			e.maxW = w
		}
	}
	loop := &moves.PairLoop{Pol: e, Tracer: cfg.Tracer, TraceRun: cfg.TraceRun}
	out := moves.Run(loop, 0, cfg.Tracer, cfg.TraceRun, nil)

	b, err := partition.NewBisection(h, e.side)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Sides:   e.side,
		CutCost: b.CutCost(),
		CutNets: b.CutNets(),
		Passes:  out.Passes,
		Swaps:   out.Kept,
	}, nil
}

// engine is KL's PairPolicy: D values (external minus internal weighted
// connectivity) over the clique-expanded graph.
type engine struct {
	h          *hypergraph.Hypergraph
	g          *hypergraph.Graph
	cfg        Config
	side       []uint8
	d          []float64
	locked     []bool
	sideWeight [2]int64
	total      int64
	maxW       int64
}

// Algo implements moves.PairPolicy.
func (e *engine) Algo() string { return "kl" }

// Cut implements moves.PairPolicy: the hypergraph cut of the current
// sides, recounted on demand (traced passes only — KL maintains no
// incremental hypergraph cut).
func (e *engine) Cut() float64 {
	var cost float64
	for nt := 0; nt < e.h.NumNets(); nt++ {
		pins := e.h.Net(nt)
		if len(pins) == 0 {
			continue
		}
		first := e.side[pins[0]]
		for _, v := range pins[1:] {
			if e.side[v] != first {
				cost += e.h.NetCost(nt)
				break
			}
		}
	}
	return cost
}

// BeginPass implements moves.PairPolicy: recompute all D values and
// unlock everything.
func (e *engine) BeginPass() {
	for u := range e.d {
		var ext, int_ float64
		for _, ed := range e.g.Adj[u] {
			if e.side[ed.To] == e.side[u] {
				int_ += ed.Weight
			} else {
				ext += ed.Weight
			}
		}
		e.d[u] = ext - int_
	}
	for i := range e.locked {
		e.locked[i] = false
	}
}

// Swap implements moves.PairPolicy: lock the pair, update unlocked
// neighbors' D values (u leaving its side raises D of its old-side
// neighbors and lowers D of its new-side ones by 2·w each), then exchange
// the sides.
func (e *engine) Swap(a, b int) float64 {
	gain := e.d[a] + e.d[b] - 2*edgeWeight(e.g, a, b)
	e.locked[a], e.locked[b] = true, true
	for _, u := range [2]int{a, b} {
		for _, ed := range e.g.Adj[u] {
			w := ed.To
			if e.locked[w] {
				continue
			}
			if e.side[w] == e.side[u] {
				e.d[w] += 2 * ed.Weight
			} else {
				e.d[w] -= 2 * ed.Weight
			}
		}
	}
	e.exchange(a, b)
	return gain
}

// Unswap implements moves.PairPolicy (rollback; D values are stale after
// a pass ends and are rebuilt by the next BeginPass).
func (e *engine) Unswap(a, b int) { e.exchange(a, b) }

func (e *engine) exchange(a, b int) {
	wa, wb := e.h.NodeWeight(a), e.h.NodeWeight(b)
	e.sideWeight[e.side[a]] += wb - wa
	e.sideWeight[e.side[b]] += wa - wb
	e.side[a], e.side[b] = e.side[b], e.side[a]
}

// swapFits reports whether swapping (a, b) keeps side 0 within the
// configured balance criterion (always true when no criterion is set, and
// for equal-weight pairs, which leave side weights unchanged).
func (e *engine) swapFits(a, b int) bool {
	if e.cfg.Balance == (partition.Balance{}) {
		return true
	}
	wa, wb := e.h.NodeWeight(a), e.h.NodeWeight(b)
	if wa == wb {
		return true
	}
	w0 := e.sideWeight[0] + wb - wa
	if e.side[a] == 1 {
		w0 = e.sideWeight[0] + wa - wb
	}
	return e.cfg.Balance.FeasibleWithSlack(w0, e.total, e.maxW)
}

// BestPair implements moves.PairPolicy: scan the top-candidates unlocked
// nodes of each side by D value and return the balance-feasible pair
// maximizing D(a)+D(b)−2·w(a,b).
func (e *engine) BestPair() (int, int, bool) {
	var s0, s1 []int
	for u := range e.side {
		if e.locked[u] {
			continue
		}
		if e.side[u] == 0 {
			s0 = append(s0, u)
		} else {
			s1 = append(s1, u)
		}
	}
	if len(s0) == 0 || len(s1) == 0 {
		return 0, 0, false
	}
	top := func(s []int) []int {
		sort.Slice(s, func(i, j int) bool { return e.d[s[i]] > e.d[s[j]] })
		if len(s) > candidates {
			s = s[:candidates]
		}
		return s
	}
	s0, s1 = top(s0), top(s1)
	bestA, bestB, bestG := -1, -1, 0.0
	for _, a := range s0 {
		for _, b := range s1 {
			if !e.swapFits(a, b) {
				continue
			}
			w := edgeWeight(e.g, a, b)
			if gn := e.d[a] + e.d[b] - 2*w; bestA < 0 || gn > bestG {
				bestA, bestB, bestG = a, b, gn
			}
		}
	}
	return bestA, bestB, bestA >= 0
}

// edgeWeight returns w(a,b) by binary search in a's sorted adjacency.
func edgeWeight(g *hypergraph.Graph, a, b int) float64 {
	adj := g.Adj[a]
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid].To < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(adj) && adj[lo].To == b {
		return adj[lo].Weight
	}
	return 0
}
