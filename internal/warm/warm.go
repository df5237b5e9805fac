// Package warm is the polish fixpoint of the incremental path: starting
// from a finished engine run's sides, it alternates a partner engine and
// deterministic-init PROP until neither improves the cut — a
// cross-heuristic fixpoint. prop.Repartition polishes its warm-started
// result with it, and AlgoFlow polishes each PROP run with the corridor
// max-flow stage as partner.
//
// The rotation exists because each engine has a distinct escape
// direction: PROP's probabilistic gains encode lookahead FM lacks, FM's
// strict gain ordering realizes swaps PROP's probability ranking defers,
// and deterministic-init PROP explores a different basin than blind-init
// PROP from the same sides. Every stage is deterministic and starts from
// the previous stage's exact sides, so the polish is a pure function of
// its inputs — bit-identical at any worker count.
package warm

import (
	"prop/internal/core"
	"prop/internal/hypergraph"
	"prop/internal/refine"
)

// maxPolishRounds bounds the partner/PROP alternation; in practice the
// polish reaches its fixpoint in one or two rounds.
const maxPolishRounds = 4

// Result is the outcome of a polish.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
}

// PolishWith alternates partner and deterministic-init PROP from sides
// until neither lowers the cut, keeping the best state seen: each round
// runs partner from the best sides, then PROP from the partner's result.
// cut/cutNets describe sides, so callers that already ran an engine don't
// pay a recount. PROP runs the paper's parameters with deterministic
// init, under the partner's balance and tracer. The partner is any engine of refine.Algorithms;
// Repartition selects the algorithm the caller partitioned with, so polish
// escapes local minima in the same move system that produced them.
func PolishWith(h *hypergraph.Hypergraph, sides []uint8, cut float64, cutNets int, partner refine.Options) (Result, error) {
	best := Result{Sides: sides, CutCost: cut, CutNets: cutNets}
	propCfg := core.DefaultConfig(partner.Balance)
	propCfg.Init = core.InitDeterministic
	propCfg.Tracer, propCfg.TraceRun = partner.Tracer, partner.TraceRun
	propOpt := refine.Options{Algorithm: "prop", Balance: partner.Balance, PROP: &propCfg,
		Tracer: partner.Tracer, TraceRun: partner.TraceRun}
	for round := 0; round < maxPolishRounds; round++ {
		sp := partner.Tracer.StartPhaseLevel(partner.TraceRun, "polish", round)
		pRes, err := refine.Bipartition(h, best.Sides, partner)
		if err != nil {
			sp.End()
			return Result{}, err
		}
		propRes, err := refine.Bipartition(h, pRes.Sides, propOpt)
		sp.End()
		if err != nil {
			return Result{}, err
		}
		switch {
		case propRes.CutCost < best.CutCost:
			best.Sides, best.CutCost, best.CutNets = propRes.Sides, propRes.CutCost, propRes.CutNets
		case pRes.CutCost < best.CutCost:
			best.Sides, best.CutCost, best.CutNets = pRes.Sides, pRes.CutCost, pRes.CutNets
		default:
			return best, nil
		}
	}
	return best, nil
}
