package bench

import (
	"fmt"
	"io"

	"prop"
	"prop/internal/partition"
)

// WriteBalanceSweep reports PROP's best cut as the balance window widens
// from the paper's 50-50% to 40-60% — the supplementary view of the two
// criteria Tables 2 and 3 use: a looser window strictly enlarges the
// feasible set, so cuts should be monotonically non-increasing, and the
// 45-55% values should sit between the extremes.
func WriteBalanceSweep(w io.Writer, seed int64) error {
	windows := []partition.Balance{
		{R1: 0.50, R2: 0.50},
		{R1: 0.475, R2: 0.525},
		{R1: 0.45, R2: 0.55},
		{R1: 0.425, R2: 0.575},
		{R1: 0.40, R2: 0.60},
	}
	circuits := []string{"balu", "struct", "t3", "p2"}
	const runs = 10

	fmt.Fprintf(w, "Balance sweep: PROP best-of-%d cut vs balance window\n", runs)
	fmt.Fprintf(w, "%-12s", "window")
	for _, c := range circuits {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintln(w)
	for _, bal := range windows {
		fmt.Fprintf(w, "%-12s", bal.String())
		for _, name := range circuits {
			n, err := prop.Benchmark(name)
			if err != nil {
				return err
			}
			res, err := prop.Partition(n, prop.Options{R1: bal.R1, R2: bal.R2, Runs: runs, Seed: seed, Parallel: 1})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %9.0f", res.CutCost)
		}
		fmt.Fprintln(w)
	}
	return nil
}
