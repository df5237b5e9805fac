package multilevel

import (
	"context"

	"prop/internal/cluster"
	"prop/internal/hypergraph"
	"prop/internal/moves"
)

// nlevel contracts one pair at a time, partitions the coarsest residue,
// then pops the memento stack in batches, refining only around
// just-revived nodes. Additional cycles recoarsen within the refined sides
// (the partition rides down intact) and unwind again; the best cut wins.
func (r *hierarchy) nlevel(ctx context.Context) error {
	cfg := r.cfg
	var best []uint8
	bestCut := -1.0
	stale := 0
	for iter := 0; iter <= nlevelCycles; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := cfg.Seed + int64(iter)*104729
		// Cycle 0 coarsens freely; later cycles contract only within the
		// current sides, so the partition survives coarsening exactly.
		var within []uint8
		if iter > 0 {
			within = r.sides
		}
		if err := cluster.CoarsenInPlace(r.c, coarsestNodes, seed, within, cfg.Tracer, cfg.TraceRun); err != nil {
			return err
		}
		if iter > 0 && r.c.Depth() == 0 {
			break // sides admit no further contraction; nothing to redo
		}
		var err error
		if iter == 0 {
			r.levels = r.c.Depth()
			r.coarsestCut, err = r.initial(ctx, seed)
		} else {
			// Warm cycle: the current partition, still feasible at the
			// coarsest level, is refined there as the start.
			sp := cfg.Tracer.StartPhase(cfg.TraceRun, "initial")
			_, err = r.refineLevel(true)
			sp.End()
		}
		if err != nil {
			return err
		}
		if err := r.uncoarsen(ctx); err != nil {
			return err
		}
		// Depth 0: repair to the exact fine-level window, then (on graphs
		// small enough that a full sweep is cheap) polish.
		cut, err := r.refineLevel(r.h.NumNodes() <= polishMaxNodes)
		if err != nil {
			return err
		}
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			best = append(best[:0], r.sides...)
			stale = 0
		} else if stale++; stale >= 2 {
			// Two consecutive non-improving cycles end the iteration. One is
			// tolerated because a worse intermediate partition reshuffles the
			// next recoarsening — cheap diversification that regularly escapes
			// the plateau a single-strike break would stop at.
			break
		}
	}
	copy(r.sides, best)
	return nil
}

// uncoarsen pops the whole memento stack in batches of uncontractBatch,
// each pop reviving one node next to its representative (side inheritance
// keeps the cut exact), then runs boundary-localized FM seeded with the
// revived pairs. Each doubling of the alive count closes a checkpoint
// segment, traced as one "uncoarsen" span; while at most polishMaxNodes
// are alive the checkpoint also runs the full level step — V-cycle-quality
// refinement where it is cheap, localized refinement everywhere above.
func (r *hierarchy) uncoarsen(ctx context.Context) error {
	cfg, c := r.cfg, r.c
	seg := 0
	sp := cfg.Tracer.StartPhaseLevel(cfg.TraceRun, "uncoarsen", seg)
	defer func() { sp.End() }()
	l := moves.NewLocalized(c, cfg.Balance, r.sides)
	caseA := make([]int32, 0, 64)
	checkpoint := c.AliveCount() * 2
	for c.Depth() > 0 {
		for i := 0; i < uncontractBatch && c.Depth() > 0; i++ {
			var m hypergraph.Memento
			m, caseA = c.Uncontract(caseA[:0])
			l.Uncontracted(int(m.U), int(m.V), caseA)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		l.Refine(8)
		if c.AliveCount() < checkpoint || c.Depth() == 0 {
			continue
		}
		checkpoint = c.AliveCount() * 2
		if c.AliveCount() <= polishMaxNodes {
			if _, err := r.refineLevel(true); err != nil {
				return err
			}
			// The checkpoint moved nodes behind the localized refiner's
			// back; recount its incremental state.
			l.Resync()
		}
		sp.End()
		seg++
		sp = cfg.Tracer.StartPhaseLevel(cfg.TraceRun, "uncoarsen", seg)
	}
	return nil
}
