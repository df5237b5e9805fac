// Package multilevel implements the multilevel partitioner the PROP
// paper's conclusion proposes ("we believe that in conjunction with a
// clustering initial phase it will yield a high-quality partitioning
// tool"): coarsen the netlist by heavy-edge matching, partition the
// coarsest level from multiple starts, then uncoarsen, refining the
// projected partition with an iterative engine (PROP or FM).
//
// Both hierarchy modes run on one hypergraph.Contracted view, built once
// per call: a V-cycle level is the mementos of one matching round, an
// n-level level a single contraction.
package multilevel

import (
	"context"
	"fmt"
	"math/rand"

	"prop/internal/cluster"
	"prop/internal/hypergraph"
	"prop/internal/obs"
	"prop/internal/partition"
	"prop/internal/refine"
)

// Refiner improves a side assignment on one hierarchy level in place and
// returns the refined sides and cut cost.
type Refiner func(h *hypergraph.Hypergraph, sides []uint8, bal partition.Balance) ([]uint8, float64, error)

// algoRefiner refines with the locked-move engine o selects; the
// per-level balance overwrites o.Balance.
func algoRefiner(o refine.Options) Refiner {
	return func(h *hypergraph.Hypergraph, sides []uint8, bal partition.Balance) ([]uint8, float64, error) {
		o := o
		o.Balance = bal
		res, err := refine.Bipartition(h, sides, o)
		if err != nil {
			return nil, 0, err
		}
		return res.Sides, res.CutCost, nil
	}
}

// FMRefiner refines with FM. Coarse levels carry weighted nets, so it uses
// the tree selector: "fm" (bucket selector) only works on hierarchies of
// unit-cost nets.
func FMRefiner() Refiner { return algoRefiner(refine.Options{Algorithm: "fm-tree"}) }

// Mode names for Config.Mode.
const (
	// ModeVCycle is the classic V-cycle: coarsening runs by whole matching
	// rounds, and uncoarsening pops one round's mementos at a time, then
	// materializes, repairs and refines that level.
	ModeVCycle = "vcycle"
	// ModeNLevel is the n-level hierarchy: one contraction per level, and
	// uncoarsening pops mementos lazily, refining only around just-revived
	// boundary nodes. Peak memory stays O(pins) regardless of depth, which
	// is what makes million-node instances fit.
	ModeNLevel = "nlevel"
)

const (
	// nlevelCycles is how many side-respecting recoarsening cycles n-level
	// runs after the initial hierarchy. Each recoarsens within the current
	// sides — the partition rides to the coarsest level intact — refines
	// it there, and unwinds again; the best cut across cycles wins.
	nlevelCycles = 2
	// polishMaxNodes bounds n-level's full-level refinement: checkpoints
	// and the depth-0 finish with at most this many alive nodes get a
	// complete cfg.Refine pass. Million-node runs skip it above that size
	// — the localized batches have already refined every boundary.
	polishMaxNodes = 20000
	// coarsestNodes stops coarsening at roughly this many alive nodes.
	coarsestNodes = 120
	// initialRuns is the multi-start count at the coarsest level.
	initialRuns = 10
	// uncontractBatch is how many mementos n-level pops between localized
	// refinement episodes. Smaller batches refine more often; larger ones
	// amortize heap fills. The episode's activation cap in moves (512) is
	// 8× this batch.
	uncontractBatch = 64
)

// Config controls the hierarchy.
type Config struct {
	Balance partition.Balance
	// Mode selects the hierarchy style: ModeVCycle (default) or ModeNLevel.
	Mode string
	// InPlace mutates the input hypergraph's arenas during the hierarchy
	// instead of copying them — the full unwind restores them bit-for-bit
	// before Partition returns, on every exit path, halving peak memory.
	// Off by default because callers sharing the hypergraph across
	// goroutines (e.g. a server's circuit cache) must not observe the
	// transient state.
	InPlace bool
	// Refine is the per-level engine (nil → PROP).
	Refine Refiner
	Seed   int64

	// Tracer, when non-nil, receives phase spans: "multilevel" wrapping
	// the whole run, one "coarsen" span per matching round, "initial"
	// around each coarsest-level partition, and "uncoarsen" spans — one
	// per V-cycle level, one per n-level checkpoint segment (a doubling of
	// the alive count). Observation-only. When Refine is nil the default
	// PROP refiner inherits the tracer, so its dispatch spans nest inside
	// the level spans.
	Tracer   *obs.Tracer
	TraceRun int
}

// Result reports the outcome.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	// Levels is the coarsening depth used: matching rounds for the
	// V-cycle, contractions for n-level.
	Levels int
	// CoarsestCut is the cut before uncoarsening began (coarse costs are
	// comparable because coarsening preserves net costs).
	CoarsestCut float64
	// HierarchyBytes is the peak CSR-arena footprint the hierarchy held
	// on top of the base graph: the contraction view's tables, overflow
	// arena and undo stacks. The scale study's RSS gate divides peak RSS
	// by base + hierarchy arenas.
	HierarchyBytes int64
}

// Partition is PartitionCtx without cancellation.
func Partition(h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	return PartitionCtx(context.Background(), h, cfg)
}

// PartitionCtx runs the configured hierarchy on h. Cancelling ctx stops
// the run between initial runs, before each V-cycle level, after each
// n-level uncontraction batch and before each n-level cycle, and returns
// ctx's error; an in-place run still hands h back intact.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Refine == nil {
		cfg.Refine = algoRefiner(refine.Options{
			Algorithm: "prop", Tracer: cfg.Tracer, TraceRun: cfg.TraceRun,
		})
	}
	var body func(*hierarchy, context.Context) error
	switch cfg.Mode {
	case "", ModeVCycle:
		body = (*hierarchy).vcycle
	case ModeNLevel:
		body = (*hierarchy).nlevel
	default:
		return Result{}, fmt.Errorf("multilevel: unknown mode %q", cfg.Mode)
	}
	sp := cfg.Tracer.StartPhase(cfg.TraceRun, "multilevel")
	defer sp.End()

	newView := hypergraph.NewContracted
	if cfg.InPlace {
		newView = hypergraph.NewContractedInPlace
	}
	c, err := newView(h)
	if err != nil {
		return Result{}, err
	}
	r := &hierarchy{cfg: cfg, h: h, c: c, sides: make([]uint8, h.NumNodes())}
	// Unwind on every exit path: an in-place view borrows h's arenas.
	defer cluster.Unwind(c, 0, r.sides)
	if err := body(r, ctx); err != nil {
		return Result{}, err
	}
	b, err := partition.NewBisection(h, r.sides)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Sides:          r.sides,
		CutCost:        b.CutCost(),
		CutNets:        b.CutNets(),
		Levels:         r.levels,
		CoarsestCut:    r.coarsestCut,
		HierarchyBytes: c.ArenaBytes(),
	}, nil
}

// hierarchy is one Partition call's state. Both modes coarsen the same
// contraction view and read and write one side assignment indexed by base
// node ID; a level's own numbering exists only while it is materialized.
type hierarchy struct {
	cfg   Config
	h     *hypergraph.Hypergraph
	c     *hypergraph.Contracted
	sides []uint8

	levels      int
	coarsestCut float64
}

// vcycle coarsens by whole matching rounds, partitions the coarsest level,
// then walks back up a round at a time: pop the round's mementos (each
// revived node inherits its representative's side), then materialize,
// repair and refine the finer level.
func (r *hierarchy) vcycle(ctx context.Context) error {
	bounds, err := cluster.CoarsenRounds(r.c, coarsestNodes, r.cfg.Seed, r.cfg.Tracer, r.cfg.TraceRun)
	if err != nil {
		return err
	}
	r.levels = len(bounds)
	if r.coarsestCut, err = r.initial(ctx, r.cfg.Seed); err != nil {
		return err
	}
	for i := len(bounds) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := r.cfg.Tracer.StartPhaseLevel(r.cfg.TraceRun, "uncoarsen", i)
		depth := 0
		if i > 0 {
			depth = bounds[i-1]
		}
		cluster.Unwind(r.c, depth, r.sides)
		_, err := r.refineLevel(true)
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// initial partitions the current level from initialRuns random starts,
// keeps the best refinement and returns its cut.
func (r *hierarchy) initial(ctx context.Context, seed int64) (float64, error) {
	sp := r.cfg.Tracer.StartPhase(r.cfg.TraceRun, "initial")
	defer sp.End()
	g, ids, err := r.level()
	if err != nil {
		return 0, err
	}
	var best []uint8
	bestCut := -1.0
	for i := 0; i < initialRuns; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		refined, cut, err := r.cfg.Refine(g, partition.RandomSides(g, r.cfg.Balance, rng), r.cfg.Balance)
		if err != nil {
			return 0, err
		}
		if bestCut < 0 || cut < bestCut {
			best, bestCut = refined, cut
		}
	}
	r.scatter(ids, best)
	return bestCut, nil
}

// refineLevel materializes the current level, repairs its balance to the
// exact window and, when polish is set, refines it with cfg.Refine,
// writing the result back and returning the level's cut. A partition
// feasible at a coarser level — where the tolerance is one whole cluster —
// can violate the bounds here, and the move engines cannot recover from an
// infeasible start on their own.
func (r *hierarchy) refineLevel(polish bool) (float64, error) {
	g, ids, err := r.level()
	if err != nil {
		return 0, err
	}
	proj := r.sides
	if ids != nil {
		proj = make([]uint8, len(ids))
		for i, id := range ids {
			proj[i] = r.sides[id]
		}
	}
	b, err := partition.NewBisection(g, proj)
	if err != nil {
		return 0, err
	}
	if err := partition.RepairBalance(b, r.cfg.Balance); err != nil {
		return 0, err
	}
	sides, cut := b.Sides(), b.CutCost()
	if polish {
		if sides, cut, err = r.cfg.Refine(g, sides, r.cfg.Balance); err != nil {
			return 0, err
		}
	}
	r.scatter(ids, sides)
	return cut, nil
}

// level materializes the current level with CoarseGraph and returns the
// base ID of each of its nodes. At depth 0 the level is h itself and the
// IDs are nil.
func (r *hierarchy) level() (*hypergraph.Hypergraph, []int32, error) {
	if r.c.Depth() == 0 {
		return r.h, nil, nil
	}
	return r.c.CoarseGraph()
}

// scatter writes a level's sides back to base IDs (ids from level).
func (r *hierarchy) scatter(ids []int32, sides []uint8) {
	if ids == nil {
		copy(r.sides, sides)
		return
	}
	for i, id := range ids {
		r.sides[id] = sides[i]
	}
}
