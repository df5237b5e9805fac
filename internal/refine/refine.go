// Package refine dispatches the iterative bipartitioning family — the
// locked-move engines PROP, FM (bucket and tree selectors), LA, KL and SK,
// plus the corridor max-flow polisher — behind one uniform call. Callers
// that only need "improve these sides with algorithm X" (the multi-start
// portfolio, the multilevel V-cycle, the warm-start polish chain, the
// recursive k-way cutter) pick by name instead of wiring each package's
// configuration separately.
package refine

import (
	"fmt"

	"prop/internal/core"
	"prop/internal/flow"
	"prop/internal/fm"
	"prop/internal/hypergraph"
	"prop/internal/kl"
	"prop/internal/la"
	"prop/internal/obs"
	"prop/internal/partition"
	"prop/internal/sk"
)

// Options selects and configures one locked-move engine run.
type Options struct {
	// Algorithm is one of Algorithms(): "prop", "fm", "fm-tree", "la",
	// "kl", "sk", "flow".
	Algorithm string
	Balance   partition.Balance
	// LADepth is the lookahead depth for "la" (0 selects 2).
	LADepth int
	// PROP, when non-nil, is the exact core configuration used for "prop"
	// (the caller then owns its Balance and Tracer); nil selects
	// core.DefaultConfig(Balance) tagged with the fields below.
	PROP *core.Config

	// Tracer, when non-nil, receives per-pass trace events from whichever
	// engine runs. Observation-only.
	Tracer *obs.Tracer
	// TraceRun labels emitted events with this multi-start run index.
	TraceRun int
}

// Result is the uniform outcome of a dispatch.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	Passes  int
	// Moves counts virtual moves (node engines) or kept swaps (pair
	// engines).
	Moves int
}

// Algorithms lists the dispatchable algorithms in canonical order.
func Algorithms() []string {
	return []string{"prop", "fm", "fm-tree", "la", "kl", "sk", "flow"}
}

// Bipartition runs the selected engine from the given initial sides (not
// modified) and returns the locally improved partition. When a tracer is
// attached the whole dispatch is wrapped in a phase span named after the
// algorithm, so every engine invocation — top-level, multilevel refine,
// warm polish, flow partner — lands in the per-phase wall-time tree.
func Bipartition(h *hypergraph.Hypergraph, initial []uint8, o Options) (Result, error) {
	name := o.Algorithm
	if name == "" {
		name = "refine"
	}
	sp := o.Tracer.StartPhase(o.TraceRun, name)
	r, err := bipartition(h, initial, o)
	sp.End()
	return r, err
}

func bipartition(h *hypergraph.Hypergraph, initial []uint8, o Options) (Result, error) {
	switch o.Algorithm {
	case "kl":
		r, err := kl.Partition(h, initial, kl.Config{
			Balance: o.Balance, Tracer: o.Tracer, TraceRun: o.TraceRun,
		})
		if err != nil {
			return Result{}, err
		}
		return Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets,
			Passes: r.Passes, Moves: r.Swaps}, nil
	case "sk":
		r, err := sk.Partition(h, initial, sk.Config{Tracer: o.Tracer, TraceRun: o.TraceRun})
		if err != nil {
			return Result{}, err
		}
		return Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets,
			Passes: r.Passes, Moves: r.Swaps}, nil
	case "flow":
		r, err := flow.Refine(h, initial, flow.Config{
			Balance: o.Balance, Tracer: o.Tracer, TraceRun: o.TraceRun,
		})
		if err != nil {
			return Result{}, err
		}
		return Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets,
			Passes: r.Rounds, Moves: r.Adopted}, nil
	}
	b, err := partition.NewBisection(h, initial)
	if err != nil {
		return Result{}, err
	}
	switch o.Algorithm {
	case "fm", "fm-tree":
		sel := fm.Bucket
		if o.Algorithm == "fm-tree" {
			sel = fm.Tree
		}
		r, err := fm.Partition(b, fm.Config{
			Balance: o.Balance, Selector: sel,
			Tracer: o.Tracer, TraceRun: o.TraceRun,
		})
		if err != nil {
			return Result{}, err
		}
		return Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets,
			Passes: r.Passes, Moves: r.Moves}, nil
	case "la":
		k := o.LADepth
		if k == 0 {
			k = 2
		}
		r, err := la.Partition(b, la.Config{
			K: k, Balance: o.Balance,
			Tracer: o.Tracer, TraceRun: o.TraceRun,
		})
		if err != nil {
			return Result{}, err
		}
		return Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets,
			Passes: r.Passes, Moves: r.Moves}, nil
	case "prop":
		var cfg core.Config
		if o.PROP != nil {
			cfg = *o.PROP
		} else {
			cfg = core.DefaultConfig(o.Balance)
			cfg.Tracer = o.Tracer
			cfg.TraceRun = o.TraceRun
		}
		r, err := core.Partition(b, cfg)
		if err != nil {
			return Result{}, err
		}
		return Result{Sides: r.Sides, CutCost: r.CutCost, CutNets: r.CutNets,
			Passes: r.Passes, Moves: r.Moves}, nil
	}
	return Result{}, fmt.Errorf("refine: unknown algorithm %q (have %v)", o.Algorithm, Algorithms())
}
