package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"prop"
	"prop/internal/gen"
)

// The incremental study measures the ECO repartitioning path end to end:
// partition a suite circuit from scratch, perturb it with a generated
// engineering change order, then compare re-partitioning from scratch
// (prop.Partition, multi-start random PROP: the cold path) against
// prop.Repartition at Runs 1 (apply the delta, project the previous
// solution through its mapping, complete it by connectivity, PROP from
// that state, FM/PROP polish to a fixpoint: the warm path). Both run at
// Parallel 1. `cmd/bench -incremental BENCH_incremental.json` writes the
// committed report; the acceptance bar is warm cut within 2% of cold at
// ≤ 0.5× cold wall time on the 5% industry2 perturbation.

// IncrementalRecord is one (circuit, perturbation fraction) measurement.
type IncrementalRecord struct {
	Name     string  `json:"name"`
	Fraction float64 `json:"fraction"`
	// Nodes/Nets size the perturbed circuit.
	Nodes int `json:"nodes"`
	Nets  int `json:"nets"`
	// DeltaApplyMillis times Delta.Apply (construction, not search).
	DeltaApplyMillis float64 `json:"delta_apply_millis"`
	// Cold is best-of-Runs random-start PROP on the perturbed circuit;
	// ColdMillis is the whole portfolio's wall time (the from-scratch
	// protocol a production service would otherwise run).
	ColdCut    float64 `json:"cold_cut"`
	ColdMillis float64 `json:"cold_millis"`
	// Warm is prop.Repartition at Runs 1 from the previous solution;
	// WarmMillis covers the whole call, delta application and projection
	// included.
	WarmCut    float64 `json:"warm_cut"`
	WarmMillis float64 `json:"warm_millis"`
	// CutRatio = WarmCut/ColdCut, TimeRatio = WarmMillis/ColdMillis.
	CutRatio  float64 `json:"cut_ratio"`
	TimeRatio float64 `json:"time_ratio"`
}

// IncrementalReport is the full warm-vs-cold study.
type IncrementalReport struct {
	GoMaxProcs int                 `json:"gomaxprocs"`
	GoVersion  string              `json:"go_version"`
	Seed       int64               `json:"seed"`
	Runs       int                 `json:"runs"`
	Records    []IncrementalRecord `json:"records"`
}

// DefaultIncrementalCircuits is the study's circuit set: the three
// largest suite circuits, where a cold re-solve is most expensive.
func DefaultIncrementalCircuits() []string { return []string{"biomed", "s15850", "industry2"} }

// DefaultIncrementalFractions are the ECO sizes of the study: 1%, 5% and
// 10% of the nodes churned.
func DefaultIncrementalFractions() []float64 { return []float64{0.01, 0.05, 0.10} }

// RunIncremental measures warm-vs-cold repartitioning on each named suite
// circuit at each perturbation fraction. runs is the cold multi-start
// count (also used to produce the pre-ECO solution the warm path projects
// forward).
func RunIncremental(names []string, fractions []float64, runs int, seed int64, progress io.Writer) (IncrementalReport, error) {
	rep := IncrementalReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Runs:       runs,
	}
	for _, name := range names {
		base, err := prop.Benchmark(name)
		if err != nil {
			return rep, fmt.Errorf("bench: incremental circuit: %w", err)
		}
		// The same clone as a hypergraph, for the ECO generator.
		c, err := gen.SuiteCircuit(specOf(name))
		if err != nil {
			return rep, err
		}
		// The previous solution: from-scratch multi-start on the base
		// circuit, outside any timed region.
		prev, err := prop.Partition(base, prop.Options{Runs: runs, Seed: seed, Parallel: 1})
		if err != nil {
			return rep, fmt.Errorf("bench: incremental %s base: %w", name, err)
		}
		for _, frac := range fractions {
			d, err := gen.ECO(c.H, gen.ECOParams{Fraction: frac, Seed: seed + int64(frac*1000)})
			if err != nil {
				return rep, fmt.Errorf("bench: incremental %s eco %g: %w", name, frac, err)
			}
			applyStart := time.Now()
			edited, _, err := base.ApplyDelta(d)
			if err != nil {
				return rep, fmt.Errorf("bench: incremental %s apply %g: %w", name, frac, err)
			}
			applyMs := millis(time.Since(applyStart))

			coldStart := time.Now()
			cold, err := prop.Partition(edited, prop.Options{Runs: runs, Seed: seed + 1, Parallel: 1})
			if err != nil {
				return rep, fmt.Errorf("bench: incremental %s cold %g: %w", name, frac, err)
			}
			coldDur := time.Since(coldStart)

			warmStart := time.Now()
			_, warm, err := prop.Repartition(base, prev.Sides, d, prop.Options{Runs: 1, Parallel: 1})
			if err != nil {
				return rep, fmt.Errorf("bench: incremental %s warm %g: %w", name, frac, err)
			}
			warmDur := time.Since(warmStart)

			rec := IncrementalRecord{
				Name:             name,
				Fraction:         frac,
				Nodes:            edited.NumNodes(),
				Nets:             edited.NumNets(),
				DeltaApplyMillis: applyMs,
				ColdCut:          cold.CutCost,
				ColdMillis:       millis(coldDur),
				WarmCut:          warm.CutCost,
				WarmMillis:       millis(warmDur),
			}
			if cold.CutCost > 0 {
				rec.CutRatio = warm.CutCost / cold.CutCost
			}
			if coldDur > 0 {
				rec.TimeRatio = float64(warmDur) / float64(coldDur)
			}
			rep.Records = append(rep.Records, rec)
			if progress != nil {
				fmt.Fprintf(progress, "incremental %-10s %4.0f%%: cold %g in %.0fms | warm %g in %.0fms (cut ×%.3f, time ×%.2f)\n",
					name, frac*100, cold.CutCost, rec.ColdMillis, warm.CutCost, rec.WarmMillis, rec.CutRatio, rec.TimeRatio)
			}
		}
	}
	return rep, nil
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// WriteIncremental emits the report as indented JSON.
func WriteIncremental(w io.Writer, rep IncrementalReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
