// Package anneal implements a simulated-annealing min-cut bipartitioner in
// the style of Sechen's TimberWolf (reference [12] of the PROP paper's
// survey of approaches, §1). Moves are single-node transfers; the cost is
// the cut plus a quadratic balance penalty; the temperature follows a
// geometric cooling schedule with per-temperature move budgets
// proportional to the node count.
//
// SA is included as the third family of baselines (iterative-improvement,
// clustering-based, stochastic): it reaches cut quality comparable to
// multi-start FM but needs far more moves, which is why the paper's
// experimental comparison centers on the deterministic heuristics.
package anneal

import (
	"fmt"
	"math"
	"math/rand"

	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// The annealing schedule.
const (
	// cooling is the geometric factor per temperature step.
	cooling = 0.95
	// movesPerNode sets the move budget per temperature to movesPerNode·n.
	movesPerNode = 8
	// freezeAfter stops after this many consecutive temperatures without
	// accepting an improving move.
	freezeAfter = 4
	// minTemp floors the schedule.
	minTemp = 1e-3
	// balancePenalty weights the quadratic imbalance term per unit weight
	// beyond the bounds.
	balancePenalty = 1.0
)

// Config controls the annealer.
type Config struct {
	Balance partition.Balance
	Seed    int64
}

// Result reports the outcome.
type Result struct {
	Sides        []uint8
	CutCost      float64
	CutNets      int
	Temperatures int
	Moves        int
	Accepted     int
}

// Partition anneals from the given initial sides (copied).
func Partition(h *hypergraph.Hypergraph, initial []uint8, cfg Config) (Result, error) {
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	if len(initial) != h.NumNodes() {
		return Result{}, fmt.Errorf("anneal: initial sides has %d entries for %d nodes", len(initial), h.NumNodes())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b, err := partition.NewBisection(h, initial)
	if err != nil {
		return Result{}, err
	}
	n := h.NumNodes()
	movesPerTemp := movesPerNode * n
	total := h.TotalNodeWeight()
	lo, hi := cfg.Balance.Bounds(total)

	// Imbalance penalty of a hypothetical side-0 weight.
	penalty := func(w0 int64) float64 {
		switch {
		case w0 < lo:
			d := float64(lo - w0)
			return balancePenalty * d * d
		case w0 > hi:
			d := float64(w0 - hi)
			return balancePenalty * d * d
		}
		return 0
	}
	// delta returns the cost change of moving u without applying it.
	delta := func(u int) float64 {
		dCut := -b.Gain(u) // gain is the decrease; cost change is its negation
		w0 := b.SideWeight(0)
		var w0After int64
		if b.Side(u) == 0 {
			w0After = w0 - h.NodeWeight(u)
		} else {
			w0After = w0 + h.NodeWeight(u)
		}
		return dCut + penalty(w0After) - penalty(w0)
	}

	// Starting temperature: stddev of random move deltas (standard SA
	// warm-up).
	var sum, sumSq float64
	const probes = 200
	for i := 0; i < probes; i++ {
		d := delta(rng.Intn(n))
		sum += d
		sumSq += d * d
	}
	mean := sum / probes
	temp := math.Sqrt(sumSq/probes-mean*mean) * 20
	if temp <= 0 || math.IsNaN(temp) {
		temp = 10
	}

	bestSides := b.Sides()
	bestCut := b.CutCost() + penalty(b.SideWeight(0))
	res := Result{}
	frozen := 0
	for temp > minTemp && frozen < freezeAfter {
		improvedThisTemp := false
		acceptedThisTemp := 0
		for m := 0; m < movesPerTemp; m++ {
			u := rng.Intn(n)
			d := delta(u)
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				b.Move(u)
				res.Accepted++
				acceptedThisTemp++
				cur := b.CutCost() + penalty(b.SideWeight(0))
				if cur < bestCut-1e-12 {
					bestCut = cur
					bestSides = b.Sides()
					improvedThisTemp = true
				}
			}
			res.Moves++
		}
		// Frozen means the chain is cold (almost nothing accepted) AND the
		// best state stopped improving; freezing on best-improvement alone
		// would abort during the hot random-walk phase, where the global
		// best rarely moves.
		if improvedThisTemp || acceptedThisTemp*50 > movesPerTemp {
			frozen = 0
		} else {
			frozen++
		}
		temp *= cooling
		res.Temperatures++
	}

	// Re-adopt the best state seen and repair any residual imbalance with
	// greedy best-gain moves from the heavy side.
	final, err := partition.NewBisection(h, bestSides)
	if err != nil {
		return Result{}, err
	}
	if err := partition.RepairBalance(final, cfg.Balance); err != nil {
		return Result{}, err
	}
	res.Sides = final.Sides()
	res.CutCost = final.CutCost()
	res.CutNets = final.CutNets()
	return res, nil
}
