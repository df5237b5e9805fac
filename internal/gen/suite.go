package gen

import (
	"fmt"
	"hash/fnv"

	"prop/internal/hypergraph"
)

// Circuit is one named benchmark netlist.
type Circuit struct {
	Name string
	H    *hypergraph.Hypergraph
}

// SuiteSpec records the Table-1 characteristics (#nodes, #nets, #pins) of
// one ACM/SIGDA benchmark circuit, which the synthesized clone matches.
type SuiteSpec struct {
	Name  string
	Nodes int
	Nets  int
	Pins  int
}

// Table1 lists the sixteen benchmark circuits of the paper in Table-2/3
// row order, with the exact characteristics printed in Table 1.
func Table1() []SuiteSpec {
	return []SuiteSpec{
		{"balu", 801, 735, 2697},
		{"bm1", 882, 903, 2910},
		{"p1", 833, 902, 2908},
		{"p2", 3014, 3029, 11219},
		{"s13207", 8772, 8651, 20606},
		{"s15850", 10470, 10383, 24712},
		{"s9234", 5866, 5844, 14065},
		{"struct", 1952, 1920, 5471},
		{"19ks", 2844, 3282, 10547},
		{"biomed", 6514, 5742, 21040},
		{"industry2", 12637, 13419, 48404},
		{"t2", 1663, 1720, 6134},
		{"t3", 1607, 1618, 5807},
		{"t4", 1515, 1658, 5975},
		{"t5", 2595, 2750, 10076},
		{"t6", 1752, 1541, 6638},
	}
}

// SuiteSeed derives the deterministic generator seed for a circuit name, so
// every run of every tool sees the same synthesized netlists.
func SuiteSeed(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte("prop-suite-v1:" + name))
	return int64(h.Sum64() & (1<<62 - 1))
}

// SuiteCircuit synthesizes the clone of one named benchmark.
func SuiteCircuit(spec SuiteSpec) (Circuit, error) {
	h, err := Generate(Params{
		Nodes: spec.Nodes,
		Nets:  spec.Nets,
		Pins:  spec.Pins,
		Seed:  SuiteSeed(spec.Name),
	})
	if err != nil {
		return Circuit{}, fmt.Errorf("gen: suite circuit %s: %w", spec.Name, err)
	}
	return Circuit{Name: spec.Name, H: h}, nil
}
