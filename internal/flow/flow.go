// Package flow implements flow-based boundary refinement in the style of
// Heuer–Sanders–Schlag (Network Flow-Based Refinement for Multilevel
// Hypergraph Partitioning): extract a corridor of nodes around the current
// cut, expand its hypergraph into a directed flow network via Lawler's
// construction, solve exact s-t max-flow with Dinic's algorithm, pick the
// most balanced of the minimum cuts from the residual graph, and adopt the
// induced side assignment when it strictly lowers the cut.
//
// Unlike the locked-move engines (internal/moves), a flow round reasons
// about a whole region of the cut at once, so it escapes local minima that
// per-node gain accounting cannot: the minimum cut through the corridor is
// exact, not greedy. The stage is a polisher — it starts from a feasible
// bisection and only ever replaces it with a strictly better feasible one —
// and is deterministic: corridor BFS visits nodes in ascending ID order,
// the network is built in first-discovery order, and min-cut component
// selection breaks ties by emission order, so the result is a pure function
// of the input sides.
package flow

import (
	"fmt"
	"time"

	"prop/internal/hypergraph"
	"prop/internal/obs"
	"prop/internal/partition"
)

const (
	// radius is the BFS depth of the corridor around boundary nodes.
	radius = 3
	// maxFrac bounds each side's corridor weight to maxFrac × total node
	// weight, the corridor analogue of the balance window slack: nodes
	// beyond it are frozen exterior, so one round can shift at most that
	// much weight across the cut.
	maxFrac = 0.125
	// rounds bounds the extract→flow→adopt rounds per Refine call;
	// refinement also stops at the first round that fails to improve the
	// cut.
	rounds = 8
	// maxExpandNet: nets with more pins than this seed no BFS expansion
	// (they would pull whole netlist regions into the corridor); they are
	// still modeled in the network when touched.
	maxExpandNet = 64
	// epsCut is the strict-improvement threshold for adopting a new cut.
	epsCut = 1e-9
)

// Config configures one Refine call.
type Config struct {
	Balance partition.Balance

	// Tracer, when non-nil, receives one obs.FlowRound event per round.
	Tracer *obs.Tracer
	// TraceRun labels emitted events with this multi-start run index.
	TraceRun int
}

// Result is the outcome of a Refine call.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	// Rounds counts extract→flow→adopt rounds executed; Adopted counts the
	// rounds whose induced cut was strictly better and kept.
	Rounds  int
	Adopted int
}

// Refine polishes the given feasible bisection (initial is not modified)
// with corridor max-flow rounds until a round fails to improve the cut or
// the round bound is reached. The returned sides never violate the
// balance window Bounds±slack that partition.Verify enforces, and the
// returned cut is never worse than the initial one.
func Refine(h *hypergraph.Hypergraph, initial []uint8, cfg Config) (Result, error) {
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	b, err := partition.NewBisection(h, initial)
	if err != nil {
		return Result{}, err
	}
	total := h.TotalNodeWeight()
	// Adoption window: the exact criterion Verify checks (side 0's Bounds
	// widened by one maximum-weight cell, the FM slack).
	lo, hi := cfg.Balance.Bounds(total)
	slack := b.MaxNodeWeight()
	lo, hi = lo-slack, hi+slack

	var res Result
	sideCap := int64(maxFrac * float64(total))
	if sideCap < 1 {
		sideCap = 1
	}
	var net network // its buffers serve every round
	for round := 0; round < rounds; round++ {
		start := time.Now()
		res.Rounds++
		sp := cfg.Tracer.StartPhaseLevel(cfg.TraceRun, "corridor", round)
		c := extractCorridor(b, radius, sideCap)
		sp.End()
		adopted := false
		var flowValue, cutAfter float64
		cutBefore := b.CutCost()
		nets := 0
		if len(c.nodes) > 0 {
			sp = cfg.Tracer.StartPhaseLevel(cfg.TraceRun, "expand", round)
			net.build(b, c)
			sp.End()
			nets = len(net.nets)
			sp = cfg.Tracer.StartPhaseLevel(cfg.TraceRun, "dinic", round)
			flowValue = float64(net.maxflow()) / net.scale
			sp.End()
			sp = cfg.Tracer.StartPhaseLevel(cfg.TraceRun, "adopt", round)
			if moved, ok := net.minCutMoves(b, c, lo, hi); ok && len(moved) > 0 {
				if delta := cutDelta(b, moved); delta < -epsCut {
					for _, u := range moved {
						b.Move(int(u))
					}
					adopted = true
					res.Adopted++
				}
			}
			sp.End()
		}
		cutAfter = b.CutCost()
		if cfg.Tracer.PassEnabled() {
			cfg.Tracer.EmitFlowRound(obs.FlowRound{
				Run: cfg.TraceRun, Round: round,
				Boundary: c.boundary, Corridor: len(c.nodes), Nets: nets,
				FlowValue: flowValue,
				CutBefore: cutBefore, CutAfter: cutAfter,
				Adopted: adopted, Dur: time.Since(start),
			})
		}
		if !adopted {
			break
		}
	}
	if err := b.Verify(); err != nil {
		return Result{}, fmt.Errorf("flow: post-refine invariant: %w", err)
	}
	res.Sides = b.Sides()
	res.CutCost = b.CutCost()
	res.CutNets = b.CutNets()
	return res, nil
}

// cutDelta returns the exact change in cut cost that flipping every node in
// moved (distinct nodes) would cause, without mutating b. Negative means
// the flip set improves the cut.
func cutDelta(b *partition.Bisection, moved []int32) float64 {
	h := b.H
	// Per affected net, count pins leaving each side; a net is affected
	// only through the moved nodes, so tally their contributions first.
	type shift struct {
		e      int32
		d0, d1 int32 // pins arriving on side 0 / side 1
	}
	idx := make(map[int32]int, 8)
	var shifts []shift
	for _, u := range moved {
		s := b.Side(int(u))
		for _, e := range h.NetsOf(int(u)) {
			i, ok := idx[e]
			if !ok {
				i = len(shifts)
				idx[e] = i
				shifts = append(shifts, shift{e: e})
			}
			if s == 0 {
				shifts[i].d1++
			} else {
				shifts[i].d0++
			}
		}
	}
	var delta float64
	for _, sh := range shifts {
		c0 := int32(b.PinCount(0, int(sh.e))) + sh.d0 - sh.d1
		c1 := int32(b.PinCount(1, int(sh.e))) + sh.d1 - sh.d0
		wasCut := b.IsCut(int(sh.e))
		isCut := c0 > 0 && c1 > 0
		if wasCut != isCut {
			if isCut {
				delta += h.NetCost(int(sh.e))
			} else {
				delta -= h.NetCost(int(sh.e))
			}
		}
	}
	return delta
}
