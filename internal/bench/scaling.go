package bench

import (
	"fmt"
	"io"
	"math"

	"prop"
)

// WriteScaling runs PROP on a geometric ladder of circuit sizes and reports
// time per run against the paper's Θ(m log n) bound (§3.5): the final
// column, time normalized by m·log₂n, should stay roughly flat.
func WriteScaling(w io.Writer, sizes []int, seed int64) error {
	if len(sizes) == 0 {
		sizes = []int{1000, 2000, 4000, 8000, 16000, 32000}
	}
	fmt.Fprintln(w, "Scaling study: PROP time per run vs Θ(m log n) (§3.5)")
	fmt.Fprintf(w, "%10s %10s %10s %12s %16s\n", "nodes", "nets", "pins m", "s/run", "ns/(m·log2 n)")
	for _, n := range sizes {
		nl, err := prop.Generate(prop.GenParams{
			Nodes: n, Nets: int(float64(n) * 1.05), Pins: int(float64(n) * 3.6), Seed: seed + int64(n),
		})
		if err != nil {
			return err
		}
		const runs = 3
		res, err := prop.Partition(nl, prop.Options{Runs: runs, Seed: seed, Parallel: 1})
		if err != nil {
			return err
		}
		per := res.Elapsed / runs
		m := float64(nl.NumPins())
		norm := float64(per.Nanoseconds()) / (m * math.Log2(float64(n)))
		fmt.Fprintf(w, "%10d %10d %10d %12.3f %16.1f\n",
			nl.NumNodes(), nl.NumNets(), nl.NumPins(), per.Seconds(), norm)
	}
	return nil
}
