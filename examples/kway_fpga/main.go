// kway_fpga: multi-FPGA partitioning, one of the applications the paper's
// introduction motivates ("reduce the component count and the number of
// interconnects in multiple-FPGA implementation of large circuits").
//
// The example synthesizes a ~6.5k-cell circuit (the biomed clone), splits
// it across 8 FPGAs by recursive PROP bisection, and reports per-device
// utilization and the inter-FPGA nets — then does the same with FM to show
// the interconnect saving.
//
// Run with: go run ./examples/kway_fpga
package main

import (
	"fmt"
	"log"

	"prop"
)

const (
	fpgas       = 8
	pinBudget   = 200 // I/O pins available per FPGA
	cellBudget  = 900 // logic cells per FPGA
	circuitName = "biomed"
)

func main() {
	n, err := prop.Benchmark(circuitName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %v\n", circuitName, n.Stats())
	fmt.Printf("target: %d FPGAs, ≤ %d cells and ≤ %d I/O pins each\n\n", fpgas, cellBudget, pinBudget)

	type cutter struct {
		name string
		run  func() (prop.KWayResult, error)
	}
	cutters := []cutter{
		{"recursive PROP", func() (prop.KWayResult, error) {
			return prop.KWay(n, fpgas, prop.Options{Algorithm: prop.AlgoPROP, Runs: 5, Seed: 3})
		}},
		{"recursive FM", func() (prop.KWayResult, error) {
			return prop.KWay(n, fpgas, prop.Options{Algorithm: prop.AlgoFM, Runs: 5, Seed: 3})
		}},
	}
	for _, c := range cutters {
		res, err := c.run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d inter-FPGA nets (%.1fs)\n", c.name, res.CutNets, res.Elapsed.Seconds())
		ioPins := ioPerPart(n, res.Parts, fpgas)
		ok := true
		for p := 0; p < fpgas; p++ {
			fits := "ok"
			if res.PartWeights[p] > cellBudget || ioPins[p] > pinBudget {
				fits = "OVER BUDGET"
				ok = false
			}
			fmt.Printf("  FPGA %d: %4d cells, %4d I/O nets  %s\n", p, res.PartWeights[p], ioPins[p], fits)
		}
		if ok {
			fmt.Println("  placement fits the device budgets")
		}
		fmt.Println()
	}
}

// ioPerPart counts, per part, the nets that cross its boundary — each such
// net consumes one I/O pin on that FPGA.
func ioPerPart(n *prop.Netlist, parts []int, k int) []int {
	io := make([]int, k)
	for e := 0; e < n.NumNets(); e++ {
		onPart := map[int]bool{}
		for _, u := range n.Net(e) {
			onPart[parts[u]] = true
		}
		if len(onPart) > 1 {
			for p := range onPart {
				io[p]++
			}
		}
	}
	return io
}
