package prop

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"prop/internal/anneal"
	"prop/internal/engine"
	"prop/internal/hypergraph"
	"prop/internal/multilevel"
	"prop/internal/multiway"
	"prop/internal/obs"
	"prop/internal/partition"
	"prop/internal/placement"
	"prop/internal/refine"
	"prop/internal/spectral"
	"prop/internal/warm"
	"prop/internal/window"
)

// Algorithm names a bipartitioning method.
type Algorithm string

// The implemented algorithms. AlgoPROP is the paper's contribution; the
// rest are the baselines of Tables 2 and 3 plus Kernighan–Lin.
const (
	AlgoPROP     Algorithm = "prop"
	AlgoFM       Algorithm = "fm"       // FM, bucket selector (unit net costs)
	AlgoFMTree   Algorithm = "fm-tree"  // FM, heap selector with LIFO ties (any net costs)
	AlgoLA       Algorithm = "la"       // Krishnamurthy lookahead (Options.LADepth)
	AlgoKL       Algorithm = "kl"       // Kernighan–Lin pair swaps
	AlgoEIG1     Algorithm = "eig1"     // spectral Fiedler bisection
	AlgoMELO     Algorithm = "melo"     // multiple-eigenvector linear ordering
	AlgoParaboli Algorithm = "paraboli" // analytical placement
	AlgoWindow   Algorithm = "window"   // vertex-ordering clustering + FM
	AlgoSK       Algorithm = "sk"       // Schweikert–Kernighan netlist pair swaps
	AlgoSA       Algorithm = "sa"       // simulated annealing (Sechen-style)
	AlgoMLPROP   Algorithm = "ml-prop"  // multilevel V-cycle with PROP refinement (§5)
	AlgoFlow     Algorithm = "flow"     // PROP + corridor max-flow/min-cut polish
)

// Algorithms lists every implemented algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoPROP, AlgoFM, AlgoFMTree, AlgoLA, AlgoKL, AlgoSK,
		AlgoFlow, AlgoSA, AlgoMLPROP, AlgoEIG1, AlgoMELO, AlgoParaboli, AlgoWindow}
}

// Valid reports whether a is one of Algorithms() (the empty string, which
// selects AlgoPROP, is not).
func (a Algorithm) Valid() bool {
	for _, k := range Algorithms() {
		if a == k {
			return true
		}
	}
	return false
}

// AlgorithmInfo describes one algorithm for discovery surfaces (the
// propserve GET /v1/algorithms endpoint and the CLI listing).
type AlgorithmInfo struct {
	Name        Algorithm `json:"name"`
	Description string    `json:"description"`
	// MoveEngine marks algorithms running on the shared locked-move pass
	// engine (internal/moves): these uniformly inherit balance-gated
	// best-first selection, prefix-max rollback, pass-level convergence,
	// and per-pass trace events.
	MoveEngine bool `json:"move_engine"`
	// MultiStart marks algorithms that honor Options.Runs.
	MultiStart bool `json:"multi_start"`
	// Deterministic marks algorithms whose single run is a pure function
	// of the netlist and Options.Seed.
	Deterministic bool `json:"deterministic"`
}

// AlgorithmInfos returns the feature matrix of every implemented
// algorithm, in Algorithms() order.
func AlgorithmInfos() []AlgorithmInfo {
	return []AlgorithmInfo{
		{AlgoPROP, "probability-based gains (the paper's contribution)", true, true, true},
		{AlgoFM, "Fiduccia–Mattheyses, bucket selector (unit net costs)", true, true, true},
		{AlgoFMTree, "Fiduccia–Mattheyses, heap selector, LIFO ties (any net costs)", true, true, true},
		{AlgoLA, "Krishnamurthy lookahead gain vectors (Options.LADepth)", true, true, true},
		{AlgoKL, "Kernighan–Lin pair swaps on the clique expansion", true, true, true},
		{AlgoSK, "Schweikert–Kernighan netlist pair swaps", true, true, true},
		{AlgoFlow, "PROP polished by corridor max-flow/min-cut rounds", false, true, true},
		{AlgoSA, "simulated annealing (Sechen-style schedule)", false, true, true},
		{AlgoMLPROP, "multilevel V-cycle with PROP refinement", false, false, true},
		{AlgoEIG1, "spectral Fiedler bisection", false, false, true},
		{AlgoMELO, "multiple-eigenvector linear ordering", false, false, true},
		{AlgoParaboli, "analytical placement bisection", false, false, true},
		{AlgoWindow, "vertex-ordering clustering + FM", false, false, true},
	}
}

// Options controls Partition.
type Options struct {
	Algorithm Algorithm

	// R1, R2 is the balance criterion (both zero selects 50-50%; the paper
	// also uses 0.45/0.55).
	R1, R2 float64

	// Runs is the multi-start count for the iterative algorithms (0
	// selects 1); deterministic algorithms ignore it.
	Runs int
	Seed int64

	// LADepth is the lookahead depth for AlgoLA (0 selects 2). Depths
	// whose packed gain-vector key would exceed 2^53, (2·maxDegree+3)^K,
	// are rejected; no netlist allows more than 33.
	LADepth int

	// Initial, when non-nil, warm-starts run 0 of an iterative algorithm
	// from this side assignment instead of a random one — the
	// incremental-repartitioning path (see Repartition). Entries may be 0,
	// 1, or SideUnassigned; unassigned nodes are placed greedily by
	// connectivity under the balance criterion before the run. Runs
	// 1..Runs−1 remain random, so a multi-start portfolio still explores
	// beyond the warm start.
	Initial []uint8

	// Parallel bounds the worker goroutines executing multi-start runs and
	// recursive k-way subproblems: 0 selects GOMAXPROCS, 1 runs
	// sequentially. Every run derives its own seed, so the result is
	// identical for every Parallel value (the reduction reproduces the
	// sequential best-of tie-break).
	Parallel int

	// OnRun, when non-nil, observes every completed multi-start run (under
	// KWay, every run of every bisection). Calls are serialized but arrive
	// in completion order, which under Parallel > 1 need not be run order.
	OnRun func(RunUpdate)

	// Tracer, when non-nil, records structured JSONL trace events: run
	// spans from the engine plus per-pass convergence events from the
	// PROP and FM kernels (see NewTracer). Observation-only — results are
	// bit-identical with tracing on or off, at any Parallel value.
	Tracer *Tracer
	// TraceID labels this request's trace events and log lines (e.g. a
	// propserve request/job ID). Optional.
	TraceID string

	// ML selects AlgoMLPROP's hierarchy mode when non-nil.
	ML *MLParams
}

// RunUpdate reports one completed multi-start run to Options.OnRun.
type RunUpdate struct {
	// Run is the 0-based run index.
	Run int
	// CutCost and CutNets are the run's final cut.
	CutCost float64
	CutNets int
	// Passes counts the run's improvement passes (0 for algorithms that
	// do not report passes).
	Passes int
}

// MLParams selects AlgoMLPROP's multilevel hierarchy (the zero value
// selects the V-cycle).
type MLParams struct {
	// Mode selects the hierarchy style. Both contract node pairs in place
	// on one memento stack. "vcycle" (the default) makes each matching
	// round a level and refines whole levels; "nlevel" makes each
	// contraction a level and refines lazily around just-uncontracted
	// nodes, keeping peak memory O(pins) — the mode for million-node
	// netlists.
	Mode string
}

// Result is a 2-way partition.
type Result struct {
	// Sides assigns each node 0 or 1.
	Sides []uint8
	// CutCost is Σ cost over cut nets; CutNets counts them.
	CutCost float64
	CutNets int
	// Runs performed and the index of the winning run.
	Runs    int
	BestRun int
	Elapsed time.Duration
}

// ValidateBalance reports whether R1 and R2 form a window the solvers
// accept, by the rule every entry point applies: unset (50-50%), or a
// valid symmetric bisection window. A server can reject a bad window
// before it reads a netlist.
func (o Options) ValidateBalance() error {
	_, err := o.balance()
	return err
}

// balance is the one place a user's window enters: it must be a valid,
// symmetric bisection window (r1 = 1 − r2).
func (o Options) balance() (partition.Balance, error) {
	if o.R1 == 0 && o.R2 == 0 {
		return partition.Exact5050(), nil
	}
	b := partition.Balance{R1: o.R1, R2: o.R2}
	if err := b.Validate(); err != nil {
		return b, err
	}
	if math.Abs(b.R1+b.R2-1) > 1e-9 {
		return b, fmt.Errorf("prop: bisection balance (%g, %g) must satisfy r1 = 1 − r2", b.R1, b.R2)
	}
	return b, nil
}

// Partition bipartitions the netlist.
func Partition(n *Netlist, o Options) (Result, error) {
	return PartitionCtx(context.Background(), n, o)
}

// PartitionCtx bipartitions the netlist under a context: cancelling ctx
// (or passing a deadline) aborts the multi-start portfolio between runs,
// and ml-prop between its levels and uncontraction batches, and returns
// ctx's error. Runs execute concurrently per Options.Parallel.
func PartitionCtx(ctx context.Context, n *Netlist, o Options) (Result, error) {
	bal, err := o.balance()
	if err != nil {
		return Result{}, err
	}
	return partitionCtx(ctx, n, bal, o)
}

// partitionCtx is PartitionCtx under a validated side-0 window, which a
// k-way bisection may aim off centre; o.R1 and o.R2 are not read.
func partitionCtx(ctx context.Context, n *Netlist, bal partition.Balance, o Options) (Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if o.Algorithm == "" {
		o.Algorithm = AlgoPROP
	}
	runs := o.Runs
	if runs < 1 {
		runs = 1
	}

	var res Result
	var err error
	switch o.Algorithm {
	case AlgoEIG1:
		r, err := spectral.EIG1(n.h, spectral.EIG1Config{Balance: bal, Seed: o.Seed})
		if err != nil {
			return Result{}, err
		}
		res = Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets, Runs: 1}
	case AlgoMELO:
		r, err := spectral.MELO(n.h, spectral.MELOConfig{Balance: bal, Seed: o.Seed})
		if err != nil {
			return Result{}, err
		}
		res = Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets, Runs: 1}
	case AlgoParaboli:
		r, err := placement.Paraboli(n.h, placement.Config{Balance: bal})
		if err != nil {
			return Result{}, err
		}
		res = Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets, Runs: 1}
	case AlgoWindow:
		r, err := window.Partition(n.h, window.Config{Balance: bal, Runs: runs, Seed: o.Seed})
		if err != nil {
			return Result{}, err
		}
		res = Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets, Runs: 1}
	case AlgoMLPROP:
		// The V-cycle is a single deterministic run outside the portfolio
		// engine, so emit its run span here — the phase tree then has a
		// run-wall denominator like every portfolio trace.
		cfg := multilevel.Config{
			Balance: bal, Seed: o.Seed, Tracer: o.Tracer, TraceRun: 0,
		}
		if o.ML != nil {
			cfg.Mode = o.ML.Mode
		}
		o.Tracer.EmitRunStart(obs.RunStart{ID: o.TraceID, Run: 0})
		mlStart := time.Now()
		r, err := multilevel.PartitionCtx(ctx, n.h, cfg)
		end := obs.RunEnd{ID: o.TraceID, Run: 0, Dur: time.Since(mlStart)}
		if err != nil {
			end.Err = err.Error()
		}
		o.Tracer.EmitRunEnd(end)
		if err != nil {
			return Result{}, err
		}
		res = Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets, Runs: 1}
	case AlgoPROP, AlgoFM, AlgoFMTree, AlgoLA, AlgoKL, AlgoSK, AlgoFlow, AlgoSA:
		res, err = multiStart(ctx, n.h, bal, o, runs)
		if err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("prop: unknown algorithm %q", o.Algorithm)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runResult is one multi-start run's outcome flowing through the engine.
type runResult struct {
	sides  []uint8
	cost   float64
	nets   int
	passes int
}

// update converts a run outcome to the public OnRun form.
func (r runResult) update(run int) RunUpdate {
	return RunUpdate{Run: run, CutCost: r.cost, CutNets: r.nets, Passes: r.passes}
}

// multiStart executes the multi-start portfolio on the engine's worker
// pool. Each run is a pure function of its index (seed = o.Seed + r), so
// the concurrent execution returns bit-identical results to the legacy
// sequential loop for every Options.Parallel value.
func multiStart(ctx context.Context, h *hypergraph.Hypergraph, bal partition.Balance, o Options, runs int) (Result, error) {
	cfg := engine.Config[runResult]{
		Workers: o.Parallel,
		Less:    func(a, b runResult) bool { return a.cost < b.cost },
		Tracer:  o.Tracer,
		TraceID: o.TraceID,
	}
	if o.OnRun != nil {
		cfg.OnRun = func(u engine.Update[runResult]) { o.OnRun(u.Result.update(u.Run)) }
	}
	best, bestRun, err := engine.Portfolio(ctx, runs, cfg,
		func(ctx context.Context, r int) (runResult, error) {
			seed := o.Seed + int64(r)
			var initial []uint8
			if o.Initial != nil && r == 0 {
				s, err := partition.CompleteSides(h, o.Initial, bal)
				if err != nil {
					return runResult{}, err
				}
				initial = s
			} else {
				initial = partition.RandomSides(h, bal, rand.New(rand.NewSource(seed)))
			}
			return oneRun(h, bal, o, initial, seed, r)
		})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Sides:   best.sides,
		CutCost: best.cost,
		CutNets: best.nets,
		Runs:    runs,
		BestRun: bestRun,
	}, nil
}

func oneRun(h *hypergraph.Hypergraph, bal partition.Balance, o Options, initial []uint8, seed int64, run int) (runResult, error) {
	if o.Algorithm == AlgoSA {
		r, err := anneal.Partition(h, initial, anneal.Config{Balance: bal, Seed: seed})
		if err != nil {
			return runResult{}, err
		}
		return runResult{sides: r.Sides, cost: r.CutCost, nets: r.CutNets, passes: r.Temperatures}, nil
	}
	if o.Algorithm == AlgoFlow {
		// AlgoFlow is the PROP→flow composite: a full PROP run followed by
		// the warm-polish rotation with the corridor max-flow stage as
		// partner, so each run's cut is never worse than plain PROP's.
		base, err := refine.Bipartition(h, initial, refine.Options{
			Algorithm: "prop", Balance: bal, Tracer: o.Tracer, TraceRun: run,
		})
		if err != nil {
			return runResult{}, err
		}
		p, err := warm.PolishWith(h, base.Sides, base.CutCost, base.CutNets,
			refine.Options{Algorithm: "flow", Balance: bal, Tracer: o.Tracer, TraceRun: run})
		if err != nil {
			return runResult{}, err
		}
		return runResult{sides: p.Sides, cost: p.CutCost, nets: p.CutNets, passes: base.Passes}, nil
	}
	// Every other iterative algorithm is a locked-move engine dispatched
	// through the shared move-engine layer, so each inherits balance-aware
	// selection and per-pass tracing uniformly.
	r, err := refine.Bipartition(h, initial, refine.Options{
		Algorithm: string(o.Algorithm),
		Balance:   bal,
		LADepth:   o.LADepth,
		Tracer:    o.Tracer,
		TraceRun:  run,
	})
	if err != nil {
		return runResult{}, err
	}
	return runResult{sides: r.Sides, cost: r.CutCost, nets: r.CutNets, passes: r.Passes}, nil
}

// KWayResult is a recursive k-way partition.
type KWayResult struct {
	// Parts[u] is the part (0..K−1) of node u.
	Parts []int
	// CutNets counts nets spanning ≥ 2 parts; CutCost sums their costs.
	CutNets int
	CutCost float64
	// PartWeights is the node weight of each part.
	PartWeights []int64
	Elapsed     time.Duration
}

// KWay recursively bisects the netlist into k parts (any k ≥ 2) using the
// configured 2-way algorithm at every level — the paper's recursive
// min-cut scheme (§1) and §5 k-way extension. Each bisection splits a
// k-part subproblem into ⌈k/2⌉ and ⌊k/2⌋ parts, side 0's window scaled to
// aim at ⌈k/2⌉/k of its weight.
func KWay(n *Netlist, k int, o Options) (KWayResult, error) {
	return KWayCtx(context.Background(), n, k, o)
}

// KWayCtx is KWay under a context: with Options.Parallel ≠ 1 the two
// halves of every bisection recurse concurrently and each bisection runs
// its multi-start portfolio on the worker pool; cancelling ctx aborts the
// recursion.
func KWayCtx(ctx context.Context, n *Netlist, k int, o Options) (KWayResult, error) {
	start := time.Now()
	bal, err := o.balance()
	if err != nil {
		return KWayResult{}, err
	}
	if onRun := o.OnRun; onRun != nil {
		// Sibling bisections run their portfolios concurrently.
		var mu sync.Mutex
		o.OnRun = func(u RunUpdate) {
			mu.Lock()
			defer mu.Unlock()
			onRun(u)
		}
	}
	cutter := func(ctx context.Context, h *hypergraph.Hypergraph, b partition.Balance, seed int64) ([]uint8, error) {
		oo := o
		oo.Seed = seed
		// Warm starts are sized for the full netlist; recursive
		// subproblems renumber nodes, so they always start cold.
		oo.Initial = nil
		res, err := partitionCtx(ctx, &Netlist{h}, b, oo)
		if err != nil {
			return nil, err
		}
		return res.Sides, nil
	}
	r, err := multiway.PartitionCtx(ctx, n.h, multiway.Config{
		K: k, Balance: bal, Cut: cutter, Seed: o.Seed, Workers: o.Parallel,
	})
	if err != nil {
		return KWayResult{}, err
	}
	return KWayResult{
		Parts:       r.Parts,
		CutNets:     r.CutNets,
		CutCost:     r.CutCost,
		PartWeights: multiway.PartSizes(n.h, r.Parts, k),
		Elapsed:     time.Since(start),
	}, nil
}

// Verify recomputes the cut of a side assignment from scratch and checks
// the balance criterion, returning the exact cut cost and net count. Use
// it to validate results independently of the incremental engines.
func Verify(n *Netlist, sides []uint8, o Options) (cutCost float64, cutNets int, err error) {
	bal, err := o.balance()
	if err != nil {
		return 0, 0, err
	}
	b, err := partition.NewBisection(n.h, sides)
	if err != nil {
		return 0, 0, err
	}
	if !bal.FeasibleWithSlack(b.SideWeight(0), n.h.TotalNodeWeight(), b.MaxNodeWeight()) {
		return 0, 0, fmt.Errorf("prop: partition violates balance %v: side-0 weight %d of %d",
			bal, b.SideWeight(0), n.h.TotalNodeWeight())
	}
	cost, nets := b.RecountCut()
	return cost, nets, nil
}
