package bench

import (
	"fmt"
	"io"
	"time"

	"prop"
	"prop/internal/gen"
	"prop/internal/multilevel"
	"prop/internal/partition"
)

// WriteExtensions compares the extension systems against flat PROP on
// three suite circuits: the multilevel V-cycle of the paper's conclusion
// ("PROP in conjunction with a clustering initial phase"), and the other
// two algorithm families the paper's §1 surveys — pair-swap methods
// (Kernighan–Lin, Schweikert–Kernighan) and simulated annealing.
func WriteExtensions(w io.Writer, seed int64) error {
	circuits := []string{"balu", "struct", "t3"}
	const runs = 10
	methods := []struct {
		name string
		// algo is the row's prop algorithm; "" marks ML-FM, the V-cycle
		// with FM refinement, which only multilevel.Config.Refine selects.
		algo prop.Algorithm
		runs int
	}{
		{"PROP (flat)", prop.AlgoPROP, runs},
		{"ML-PROP", prop.AlgoMLPROP, 3},
		{"ML-FM", "", 3},
		{"KL", prop.AlgoKL, runs},
		{"SK", prop.AlgoSK, runs},
		{"SA", prop.AlgoSA, 3},
	}

	fmt.Fprintln(w, "Extensions study: paper §1 families and the §5 multilevel proposal")
	fmt.Fprintf(w, "(best of N runs per cell; N per method: flat/KL/SK=%d, ML/SA=3)\n", runs)
	fmt.Fprintf(w, "%-12s", "method")
	for _, c := range circuits {
		fmt.Fprintf(w, " %9s %9s", c, "s/run")
	}
	fmt.Fprintln(w)
	for _, m := range methods {
		fmt.Fprintf(w, "%-12s", m.name)
		for _, name := range circuits {
			n, err := prop.Benchmark(name)
			if err != nil {
				return err
			}
			c, err := gen.SuiteCircuit(specOf(name))
			if err != nil {
				return err
			}
			best := -1.0
			start := time.Now()
			// One call per run, seed+r: ML-PROP is a single run per call,
			// so the rows share this loop rather than Options.Runs.
			for r := 0; r < m.runs; r++ {
				var cut float64
				if m.algo == "" {
					res, err := multilevel.Partition(c.H, multilevel.Config{
						Balance: partition.Exact5050(), Refine: multilevel.FMRefiner(), Seed: seed + int64(r),
					})
					if err != nil {
						return err
					}
					cut = res.CutCost
				} else {
					res, err := prop.Partition(n, prop.Options{Algorithm: m.algo, Seed: seed + int64(r), Parallel: 1})
					if err != nil {
						return err
					}
					cut = res.CutCost
				}
				if best < 0 || cut < best {
					best = cut
				}
			}
			per := time.Since(start).Seconds() / float64(m.runs)
			fmt.Fprintf(w, " %9.0f %9.3f", best, per)
		}
		fmt.Fprintln(w)
	}
	return nil
}
