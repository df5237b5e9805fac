// Package bench is the experiment harness: it runs the full method matrix
// of the paper over the synthesized ACM/SIGDA suite and renders Tables 1–4
// and Figure 1 in the paper's layout, plus the §3.5 scaling study. Every
// study that the public API can express solves through prop.Partition and
// prop.Repartition, so the reproduced numbers come from the product path.
// See DESIGN.md §4 for the experiment index.
package bench

import (
	"fmt"
	"math"
	"time"

	"prop"
	"prop/internal/partition"
)

// Method is a named partitioning method: one prop.Partition call per
// circuit.
type Method struct {
	Name string
	Algo prop.Algorithm
	// Runs is the multi-start count (prop.Options.Runs). WINDOW spends it
	// on its internal FM multi-start; the deterministic methods ignore it.
	Runs int
	// LADepth is the lookahead depth of prop.AlgoLA.
	LADepth int
}

// Series holds the measurements of one method on one circuit.
type Series struct {
	// Cuts holds the cut of each independent run, in run order.
	Cuts []float64
	// PerRun is the mean wall-clock time of one run.
	PerRun time.Duration
}

// BestOf returns the best cut among the first k runs (the paper's
// "FM20/FM40/FM100" protocol); k is clamped to the available runs.
func (s Series) BestOf(k int) float64 {
	if k > len(s.Cuts) {
		k = len(s.Cuts)
	}
	best := math.Inf(1)
	for _, c := range s.Cuts[:k] {
		if c < best {
			best = c
		}
	}
	return best
}

// Mean returns the average cut over all runs.
func (s Series) Mean() float64 {
	var t float64
	for _, c := range s.Cuts {
		t += c
	}
	return t / float64(len(s.Cuts))
}

// RunSeries runs a method on one netlist under the balance window bal.
// Run r uses seed baseSeed+r, as prop.Partition derives it; at Parallel 1
// OnRun reports each run's cut in run order. WINDOW, EIG1, MELO, Paraboli
// and ML-PROP report no per-run cuts, so their series is the result's cut.
func RunSeries(n *prop.Netlist, bal partition.Balance, m Method, baseSeed int64) (Series, error) {
	var cuts []float64
	res, err := prop.Partition(n, prop.Options{
		Algorithm: m.Algo,
		R1:        bal.R1,
		R2:        bal.R2,
		Runs:      m.Runs,
		Seed:      baseSeed,
		LADepth:   m.LADepth,
		Parallel:  1,
		OnRun:     func(u prop.RunUpdate) { cuts = append(cuts, u.CutCost) },
	})
	if err != nil {
		return Series{}, fmt.Errorf("bench: %s: %w", m.Name, err)
	}
	if len(cuts) == 0 {
		cuts = []float64{res.CutCost}
	}
	return Series{Cuts: cuts, PerRun: res.Elapsed / time.Duration(len(cuts))}, nil
}
