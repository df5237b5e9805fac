// Package sk implements the Schweikert–Kernighan netlist bipartitioner
// (reference [3] of the PROP paper): Kernighan–Lin-style locked pair swaps,
// but with the proper hypergraph net model instead of a graph
// approximation. The swap gain of a pair (a, b) on opposite sides is
//
//	gain(a) + gain(b) − Σ_{e ∋ a,b} (g_a(e) + g_b(e))
//
// where gain(·) is the Eqn.-1 deterministic gain: a net containing both
// endpoints keeps its side pin counts under the swap, so its cut state
// cannot change and both single-node terms must be cancelled.
//
// The pass protocol (locking, prefix-max rollback, convergence, tracing)
// runs on the shared engine (internal/moves); this package is the
// PairPolicy supplying candidate generation and gain maintenance.
package sk

import (
	"fmt"
	"sort"

	"prop/internal/hypergraph"
	"prop/internal/moves"
	"prop/internal/obs"
	"prop/internal/partition"
)

// candidates bounds the per-side candidate list scanned for the best
// pair.
const candidates = 32

// Config controls an SK run.
type Config struct {
	// Tracer, when non-nil, receives one event per pass. Observation-only.
	Tracer *obs.Tracer
	// TraceRun labels emitted events with this multi-start run index.
	TraceRun int
}

// Result reports the outcome.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	Passes  int
	Swaps   int
}

// Partition runs SK from the given initial sides (copied, not modified).
func Partition(h *hypergraph.Hypergraph, initial []uint8, cfg Config) (Result, error) {
	if len(initial) != h.NumNodes() {
		return Result{}, fmt.Errorf("sk: initial sides has %d entries for %d nodes", len(initial), h.NumNodes())
	}
	b, err := partition.NewBisection(h, initial)
	if err != nil {
		return Result{}, err
	}
	e := &engine{b: b, locked: make([]bool, h.NumNodes()),
		gain: make([]float64, h.NumNodes()), scratch: make([]bool, h.NumNodes())}
	loop := &moves.PairLoop{Pol: e, Tracer: cfg.Tracer, TraceRun: cfg.TraceRun}
	out := moves.Run(loop, 0, cfg.Tracer, cfg.TraceRun, nil)
	return Result{
		Sides:   b.Sides(),
		CutCost: b.CutCost(),
		CutNets: b.CutNets(),
		Passes:  out.Passes,
		Swaps:   out.Kept,
	}, nil
}

// engine is SK's PairPolicy.
type engine struct {
	b       *partition.Bisection
	locked  []bool
	gain    []float64
	scratch []bool
	nbrBuf  []int32
}

// Algo implements moves.PairPolicy.
func (e *engine) Algo() string { return "sk" }

// Cut implements moves.PairPolicy.
func (e *engine) Cut() float64 { return e.b.CutCost() }

// BeginPass implements moves.PairPolicy: unlock everything and compute
// fresh Eqn.-1 gains.
func (e *engine) BeginPass() {
	for u := 0; u < e.b.H.NumNodes(); u++ {
		e.locked[u] = false
		e.gain[u] = e.b.Gain(u)
	}
}

// Swap implements moves.PairPolicy: realize both moves, lock the pair and
// refresh the gains of the unlocked neighbors of both endpoints.
func (e *engine) Swap(a, bn int) float64 {
	h := e.b.H
	imm := e.b.Move(a) + e.b.Move(bn)
	e.locked[a], e.locked[bn] = true, true
	for _, u := range [2]int{a, bn} {
		e.nbrBuf = h.Neighbors(u, e.nbrBuf[:0], e.scratch)
		for _, v := range e.nbrBuf {
			if !e.locked[v] {
				e.gain[v] = e.b.Gain(int(v))
			}
		}
	}
	return imm
}

// Unswap implements moves.PairPolicy (rollback: toggling both sides back).
func (e *engine) Unswap(a, bn int) {
	e.b.Move(a)
	e.b.Move(bn)
}

// netGain is node u's Eqn.-1 contribution from net e.
func (e *engine) netGain(u, nt int) float64 {
	s := e.b.Side(u)
	switch {
	case e.b.PinCount(s, nt) == 1:
		return e.b.H.NetCost(nt)
	case e.b.PinCount(1-s, nt) == 0:
		return -e.b.H.NetCost(nt)
	}
	return 0
}

// pairGain estimates the swap gain of (a, b) with the shared-net
// correction.
func (e *engine) pairGain(a, bn int) float64 {
	g := e.gain[a] + e.gain[bn]
	// Shared nets: walk the shorter net list, membership-test the other.
	h := e.b.H
	na, nb := h.NetsOf(a), h.NetsOf(bn)
	if len(nb) < len(na) {
		na, nb = nb, na
		a, bn = bn, a
	}
	for _, nt := range na {
		if containsSorted(nb, nt) {
			g -= e.netGain(a, int(nt)) + e.netGain(bn, int(nt))
		}
	}
	return g
}

func containsSorted(s []int32, x int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// BestPair implements moves.PairPolicy: scan the top-candidates unlocked
// nodes per side by individual gain and maximize the corrected pair gain.
func (e *engine) BestPair() (int, int, bool) {
	var s0, s1 []int
	for u := range e.locked {
		if e.locked[u] {
			continue
		}
		if e.b.Side(u) == 0 {
			s0 = append(s0, u)
		} else {
			s1 = append(s1, u)
		}
	}
	if len(s0) == 0 || len(s1) == 0 {
		return 0, 0, false
	}
	top := func(s []int) []int {
		sort.Slice(s, func(i, j int) bool {
			if e.gain[s[i]] != e.gain[s[j]] {
				return e.gain[s[i]] > e.gain[s[j]]
			}
			return s[i] < s[j]
		})
		if len(s) > candidates {
			s = s[:candidates]
		}
		return s
	}
	s0, s1 = top(s0), top(s1)
	bestA, bestB, bestG := -1, -1, 0.0
	for _, a := range s0 {
		for _, b := range s1 {
			if g := e.pairGain(a, b); bestA < 0 || g > bestG {
				bestA, bestB, bestG = a, b, g
			}
		}
	}
	return bestA, bestB, bestA >= 0
}
