// Package kwaydirect implements direct (non-recursive) k-way min-cut
// partitioning with generalized FM moves, the first of the future-work
// extensions the PROP paper's conclusion lists ("k-way partitioning").
// Where recursive bisection fixes earlier cuts forever, the direct engine
// considers every (node, target-part) move: one pass virtually moves and
// locks nodes by best gain over all feasible targets, then keeps the
// maximum-prefix-gain subset — the Sanchis-style generalization of FM.
//
// A net's cost is paid once when it spans at least two parts, matching
// multiway.EvaluateKWay and the paper's k-way cutset definition (§1).
//
// Pass-level convergence, prefix-max rollback bookkeeping and tracing run
// on the shared engine (internal/moves); this package implements
// moves.PassRunner natively because its move candidates are (node,
// target-part) pairs rather than the two per-side containers of the
// bipartitioning loop.
package kwaydirect

import (
	"container/heap"
	"fmt"
	"math/rand"

	"prop/internal/hypergraph"
	"prop/internal/moves"
	"prop/internal/obs"
	"prop/internal/partition"
)

// Balance bounds each part's weight fraction: R1 ≤ w(part)/W ≤ R2 with
// R1 ≤ 1/k ≤ R2 (the paper's (r1, r2)-balanced k-partition).
type Balance struct {
	R1, R2 float64
}

// DefaultBalance allows ±15% around the perfect 1/k share.
func DefaultBalance(k int) Balance {
	return Balance{R1: 0.85 / float64(k), R2: 1.15 / float64(k)}
}

// Validate checks the criterion for a given k.
func (b Balance) Validate(k int) error {
	if k < 2 {
		return fmt.Errorf("kwaydirect: k=%d, want ≥ 2", k)
	}
	if !(b.R1 > 0 && b.R1 <= 1/float64(k) && b.R2 >= 1/float64(k) && b.R2 < 1) {
		return fmt.Errorf("kwaydirect: balance (%g, %g) must straddle 1/k = %g",
			b.R1, b.R2, 1/float64(k))
	}
	return nil
}

// bounds returns the inclusive weight range of one part, widened by the
// single-cell tolerance the 2-way engines also use.
func (b Balance) bounds(total, maxW int64) (lo, hi int64) {
	return partition.PartWindow(b.R1, b.R2, total, maxW)
}

// Config controls a run.
type Config struct {
	K       int
	Balance Balance // zero value selects DefaultBalance(K)

	// Tracer, when non-nil, receives one event per pass (and per move at
	// move-level verbosity). Observation-only.
	Tracer *obs.Tracer
	// TraceRun labels emitted events with this multi-start run index.
	TraceRun int
}

// Result reports the outcome.
type Result struct {
	Parts   []int
	CutCost float64
	CutNets int
	Passes  int
	Moves   int
}

// State tracks a k-way partition with incremental cut maintenance.
type State struct {
	H        *hypergraph.Hypergraph
	K        int
	parts    []int
	pinCount [][]int32 // [part][net]
	// spanned counts how many parts net e touches.
	spanned    []int32
	partWeight []int64
	cutCost    float64
	cutNets    int
	maxW       int64
}

// NewState builds the tracker (parts copied).
func NewState(h *hypergraph.Hypergraph, k int, parts []int) (*State, error) {
	if len(parts) != h.NumNodes() {
		return nil, fmt.Errorf("kwaydirect: %d parts for %d nodes", len(parts), h.NumNodes())
	}
	s := &State{
		H:          h,
		K:          k,
		parts:      append([]int(nil), parts...),
		pinCount:   make([][]int32, k),
		spanned:    make([]int32, h.NumNets()),
		partWeight: make([]int64, k),
		maxW:       1,
	}
	for p := 0; p < k; p++ {
		s.pinCount[p] = make([]int32, h.NumNets())
	}
	for u, p := range s.parts {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("kwaydirect: node %d in part %d of %d", u, p, k)
		}
		s.partWeight[p] += h.NodeWeight(u)
		if w := h.NodeWeight(u); w > s.maxW {
			s.maxW = w
		}
		for _, e := range h.NetsOf(u) {
			s.pinCount[p][e]++
		}
	}
	for e := 0; e < h.NumNets(); e++ {
		for p := 0; p < k; p++ {
			if s.pinCount[p][e] > 0 {
				s.spanned[e]++
			}
		}
		if s.spanned[e] > 1 {
			s.cutNets++
			s.cutCost += h.NetCost(e)
		}
	}
	return s, nil
}

// Part returns node u's part.
func (s *State) Part(u int) int { return s.parts[u] }

// Parts returns a copy of the assignment.
func (s *State) Parts() []int { return append([]int(nil), s.parts...) }

// CutCost returns Σ cost over nets spanning ≥ 2 parts.
func (s *State) CutCost() float64 { return s.cutCost }

// CutNets counts them.
func (s *State) CutNets() int { return s.cutNets }

// PartWeight returns the node weight of part p.
func (s *State) PartWeight(p int) int64 { return s.partWeight[p] }

// Gain returns the cut decrease of moving u to part `to` (0 if to is u's
// current part).
func (s *State) Gain(u, to int) float64 {
	from := s.parts[u]
	if from == to {
		return 0
	}
	var g float64
	for _, e := range s.H.NetsOf(u) {
		cost := s.H.NetCost(int(e))
		switch {
		case s.spanned[e] == 1:
			// Entirely in `from`; moving u cuts it (u cannot be the only pin).
			g -= cost
		case s.spanned[e] == 2 && s.pinCount[from][e] == 1 && s.pinCount[to][e] > 0:
			// u is the lone outside pin and joins the rest: net uncut.
			g += cost
		default:
			// Spanned count may change but the net stays cut either way.
		}
	}
	return g
}

// Move reassigns u to part `to` and returns the realized cut decrease.
func (s *State) Move(u, to int) float64 {
	before := s.cutCost
	from := s.parts[u]
	if from == to {
		return 0
	}
	w := s.H.NodeWeight(u)
	for _, e := range s.H.NetsOf(u) {
		cost := s.H.NetCost(int(e))
		wasSpanned := s.spanned[e]
		if s.pinCount[from][e] == 1 {
			s.spanned[e]--
		}
		if s.pinCount[to][e] == 0 {
			s.spanned[e]++
		}
		s.pinCount[from][e]--
		s.pinCount[to][e]++
		switch {
		case wasSpanned == 1 && s.spanned[e] > 1:
			s.cutNets++
			s.cutCost += cost
		case wasSpanned > 1 && s.spanned[e] == 1:
			s.cutNets--
			s.cutCost -= cost
		}
	}
	s.parts[u] = to
	s.partWeight[from] -= w
	s.partWeight[to] += w
	return before - s.cutCost
}

// CanMove reports whether moving u to part `to` keeps both affected parts
// within bal.
func (s *State) CanMove(u, to int, bal Balance) bool {
	from := s.parts[u]
	if from == to {
		return false
	}
	total := int64(0)
	for _, w := range s.partWeight {
		total += w
	}
	lo, hi := bal.bounds(total, s.maxW)
	w := s.H.NodeWeight(u)
	return s.partWeight[from]-w >= lo && s.partWeight[to]+w <= hi
}

// Verify recounts everything; for tests.
func (s *State) Verify() error {
	fresh, err := NewState(s.H, s.K, s.parts)
	if err != nil {
		return err
	}
	if fresh.cutCost != s.cutCost || fresh.cutNets != s.cutNets {
		return fmt.Errorf("kwaydirect: cut (%g,%d), recount (%g,%d)",
			s.cutCost, s.cutNets, fresh.cutCost, fresh.cutNets)
	}
	for p := 0; p < s.K; p++ {
		if fresh.partWeight[p] != s.partWeight[p] {
			return fmt.Errorf("kwaydirect: part %d weight %d, recount %d",
				p, s.partWeight[p], fresh.partWeight[p])
		}
	}
	return nil
}

// RandomParts returns a balanced random k-way assignment (round-robin over
// a shuffle, which is within one node of perfect for unit weights).
func RandomParts(h *hypergraph.Hypergraph, k int, rng *rand.Rand) []int {
	perm := rng.Perm(h.NumNodes())
	parts := make([]int, h.NumNodes())
	for i, u := range perm {
		parts[u] = i % k
	}
	return parts
}

// Partition runs the direct k-way engine from the given assignment
// (copied).
func Partition(h *hypergraph.Hypergraph, initial []int, cfg Config) (Result, error) {
	if cfg.Balance == (Balance{}) {
		cfg.Balance = DefaultBalance(cfg.K)
	}
	if err := cfg.Balance.Validate(cfg.K); err != nil {
		return Result{}, err
	}
	s, err := NewState(h, cfg.K, initial)
	if err != nil {
		return Result{}, err
	}
	e := &engine{s: s, cfg: cfg,
		locked:  make([]bool, h.NumNodes()),
		scratch: make([]bool, h.NumNodes())}
	out := moves.Run(e, 0, cfg.Tracer, cfg.TraceRun, nil)
	return Result{
		Parts:   s.Parts(),
		CutCost: s.CutCost(),
		CutNets: s.CutNets(),
		Passes:  out.Passes,
		Moves:   out.Kept,
	}, nil
}

type engine struct {
	s       *State
	cfg     Config
	locked  []bool
	scratch []bool
	nbrBuf  []int32
	log     moves.PassLog
	from    []int // origin part of the i-th logged move (rollback data)
	pass    int
}

// Algo implements moves.PassRunner.
func (e *engine) Algo() string { return "kway" }

// Cut implements moves.PassRunner.
func (e *engine) Cut() float64 { return e.s.CutCost() }

// heapEntry is a lazily invalidated candidate: stale entries (older stamp,
// locked node, infeasible target) are discarded or refreshed at pop time.
type heapEntry struct {
	gain   float64
	u      int
	target int
	stamp  int64
}

type candHeap []heapEntry

func (h candHeap) Len() int           { return len(h) }
func (h candHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h candHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)        { *h = append(*h, x.(heapEntry)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RunPass implements moves.PassRunner: virtually move and lock each node
// once (to its best feasible target at selection time), then keep the
// maximum-prefix subset. The candidate pool is a lazily invalidated
// max-heap: each node carries its best (gain, target) pair, refreshed when
// a neighbor moves or when its cached target becomes balance-infeasible.
func (e *engine) RunPass() (float64, int, int) {
	h := e.s.H
	n := h.NumNodes()
	for i := range e.locked {
		e.locked[i] = false
	}
	stamp := make([]int64, n)
	var clock int64
	pool := make(candHeap, 0, n)
	push := func(u int) {
		best, bg := -1, 0.0
		for t := 0; t < e.cfg.K; t++ {
			if t == e.s.Part(u) {
				continue
			}
			if g := e.s.Gain(u, t); best < 0 || g > bg {
				best, bg = t, g
			}
		}
		if best < 0 {
			return
		}
		clock++
		stamp[u] = clock
		heap.Push(&pool, heapEntry{gain: bg, u: u, target: best, stamp: clock})
	}
	// pushFeasible refreshes u restricted to currently feasible targets.
	pushFeasible := func(u int) {
		best, bg := -1, 0.0
		for t := 0; t < e.cfg.K; t++ {
			if t == e.s.Part(u) || !e.s.CanMove(u, t, e.cfg.Balance) {
				continue
			}
			if g := e.s.Gain(u, t); best < 0 || g > bg {
				best, bg = t, g
			}
		}
		if best < 0 {
			return // no feasible target right now; re-entered via neighbors
		}
		clock++
		stamp[u] = clock
		heap.Push(&pool, heapEntry{gain: bg, u: u, target: best, stamp: clock})
	}
	for u := 0; u < n; u++ {
		push(u)
	}

	e.log.Reset()
	e.from = e.from[:0]
	traceMoves := e.cfg.Tracer.MoveEnabled()
	for pool.Len() > 0 {
		entry := heap.Pop(&pool).(heapEntry)
		u := entry.u
		if e.locked[u] || entry.stamp != stamp[u] {
			continue // superseded or already moved
		}
		if !e.s.CanMove(u, entry.target, e.cfg.Balance) {
			// Cached target went infeasible; re-enter with the best
			// feasible one (if any).
			pushFeasible(u)
			continue
		}
		from := e.s.Part(u)
		imm := e.s.Move(u, entry.target)
		e.locked[u] = true
		e.log.Record(u, imm)
		e.from = append(e.from, from)
		if traceMoves {
			e.cfg.Tracer.EmitMove(obs.Move{Run: e.cfg.TraceRun, Pass: e.pass, Node: u, Gain: imm})
		}
		e.nbrBuf = h.Neighbors(u, e.nbrBuf[:0], e.scratch)
		for _, v := range e.nbrBuf {
			if !e.locked[v] {
				push(int(v))
			}
		}
	}

	p, gmax := e.log.BestPrefix()
	e.log.RollbackWith(p, func(i, node int) {
		e.s.Move(node, e.from[i])
	})
	e.pass++
	return gmax, e.log.Len(), p
}
