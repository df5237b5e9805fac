// Package warm implements the incremental warm-start search protocol
// shared by the public Repartition API and the incremental benchmark: a
// projected (possibly partial) side assignment is completed by
// connectivity, PROP runs from that state, and the result is polished by
// alternating FM and deterministic-init PROP until neither improves the
// cut — a cross-heuristic fixpoint.
//
// The polish rotation exists because each engine has a distinct escape
// direction: PROP's probabilistic gains encode lookahead FM lacks, FM's
// strict gain ordering realizes swaps PROP's probability ranking defers,
// and deterministic-init PROP explores a different basin than blind-init
// PROP from the same sides. PolishWith generalizes the partner slot —
// the flow engine (internal/flow) plugs in the same way, pairing PROP
// with exact corridor min cuts instead of FM. Every stage is
// deterministic and starts from
// the previous stage's exact sides, so the whole chain is a pure function
// of its inputs — bit-identical at any worker count.
package warm

import (
	"prop/internal/core"
	"prop/internal/hypergraph"
	"prop/internal/partition"
	"prop/internal/refine"
)

// maxPolishRounds bounds the FM/PROP alternation; in practice the chain
// reaches its fixpoint in one or two rounds.
const maxPolishRounds = 4

// Result is the outcome of a warm chain or polish.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	// Stages counts the engine runs executed (PROP and FM alike).
	Stages int
}

// Chain runs the full warm-start protocol: complete initial (entries 0,
// 1, or partition.Unassigned) under cfg.Balance, run PROP from the
// completed state with cfg as given, then Polish. cfg is the PROP
// configuration for every PROP stage; its Init is used for the first run
// and forced to InitDeterministic for polish runs.
func Chain(h *hypergraph.Hypergraph, initial []uint8, cfg core.Config) (Result, error) {
	completed, err := partition.CompleteSides(h, initial, cfg.Balance)
	if err != nil {
		return Result{}, err
	}
	sp := cfg.Tracer.StartPhase(cfg.TraceRun, "warm-prop")
	res, err := refine.Bipartition(h, completed, refine.Options{
		Algorithm: "prop", Balance: cfg.Balance, PROP: &cfg,
	})
	sp.End()
	if err != nil {
		return Result{}, err
	}
	out, err := Polish(h, res.Sides, res.CutCost, res.CutNets, cfg)
	if err != nil {
		return Result{}, err
	}
	out.Stages++
	return out, nil
}

// Polish alternates FM (tree selector, handles arbitrary net costs) and
// deterministic-init PROP from sides until neither lowers the cut,
// keeping the best state seen. cut/cutNets describe sides, so callers
// that already ran an engine don't pay a recount.
func Polish(h *hypergraph.Hypergraph, sides []uint8, cut float64, cutNets int, cfg core.Config) (Result, error) {
	return PolishWith(h, sides, cut, cutNets, cfg,
		refine.Options{Algorithm: "fm-tree", Balance: cfg.Balance})
}

// PolishWith is Polish with an explicit partner engine: each round runs
// partner from the best sides, then deterministic-init PROP from the
// partner's result, until neither lowers the cut. The partner is any
// locked-move engine (see refine.Algorithms); Repartition selects the
// algorithm the caller partitioned with, so polish escapes local minima in
// the same move system that produced them.
func PolishWith(h *hypergraph.Hypergraph, sides []uint8, cut float64, cutNets int, cfg core.Config, partner refine.Options) (Result, error) {
	best := Result{Sides: sides, CutCost: cut, CutNets: cutNets}
	propCfg := cfg
	propCfg.Init = core.InitDeterministic
	propOpt := refine.Options{Algorithm: "prop", Balance: cfg.Balance, PROP: &propCfg}
	for round := 0; round < maxPolishRounds; round++ {
		sp := cfg.Tracer.StartPhaseLevel(cfg.TraceRun, "polish", round)
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
		best.Stages += 2
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
