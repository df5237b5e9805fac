package prop_test

// Benchmarks regenerating the paper's experimental content, one group per
// table/figure (DESIGN.md §4). These run on small-to-medium suite circuits
// so `go test -bench=.` stays tractable; `go run ./cmd/bench -full` is the
// full-protocol driver. Timing relationships between the Benchmark*PerRun
// groups reproduce Table 4's relative per-run costs.

import (
	"fmt"
	"math/rand"
	"testing"

	"prop"

	"prop/internal/bench"
	"prop/internal/core"
	"prop/internal/fm"
	"prop/internal/gen"
	"prop/internal/la"
	"prop/internal/partition"
	"prop/internal/placement"
	"prop/internal/spectral"
	"prop/internal/window"
)

var benchCircuits = []string{"balu", "p1", "struct", "t3"}

func circuit(b *testing.B, name string) *gen.Circuit {
	b.Helper()
	c, err := gen.SuiteCircuit(specFor(name))
	if err != nil {
		b.Fatal(err)
	}
	return &c
}

func specFor(name string) gen.SuiteSpec {
	for _, s := range gen.Table1() {
		if s.Name == name {
			return s
		}
	}
	return gen.SuiteSpec{}
}

// BenchmarkTable1Suite measures circuit synthesis (the Table-1 workload
// generator) per circuit.
func BenchmarkTable1Suite(b *testing.B) {
	for _, name := range benchCircuits {
		spec := specFor(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gen.SuiteCircuit(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchIterative times one run (one random start to convergence) of an
// iterative method — the per-run cost Table 4 reports.
func benchIterative(b *testing.B, name string, run func(bis *partition.Bisection, seed int64) error) {
	for _, cname := range benchCircuits {
		c := circuit(b, cname)
		bal := partition.Exact5050()
		b.Run(cname, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				bis, err := partition.NewBisection(c.H, partition.RandomSides(c.H, bal, rng))
				if err != nil {
					b.Fatal(err)
				}
				if err := run(bis, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	_ = name
}

// BenchmarkTable2PROPPerRun: PROP per-run cost (Tables 2 and 4).
func BenchmarkTable2PROPPerRun(b *testing.B) {
	benchIterative(b, "PROP", func(bis *partition.Bisection, _ int64) error {
		_, err := core.Partition(bis, core.DefaultConfig(partition.Exact5050()))
		return err
	})
}

// BenchmarkTable2FMBucketPerRun: FM-bucket per-run cost (Tables 2 and 4).
func BenchmarkTable2FMBucketPerRun(b *testing.B) {
	benchIterative(b, "FM", func(bis *partition.Bisection, _ int64) error {
		_, err := fm.Partition(bis, fm.Config{Balance: partition.Exact5050(), Selector: fm.Bucket})
		return err
	})
}

// BenchmarkTable4FMTreePerRun: FM-tree per-run cost (Table 4's weighted-
// nets data structure row).
func BenchmarkTable4FMTreePerRun(b *testing.B) {
	benchIterative(b, "FM-tree", func(bis *partition.Bisection, _ int64) error {
		_, err := fm.Partition(bis, fm.Config{Balance: partition.Exact5050(), Selector: fm.Tree})
		return err
	})
}

// BenchmarkTable2LA2PerRun and ...LA3PerRun: LA per-run costs.
func BenchmarkTable2LA2PerRun(b *testing.B) {
	benchIterative(b, "LA-2", func(bis *partition.Bisection, _ int64) error {
		_, err := la.Partition(bis, la.Config{K: 2, Balance: partition.Exact5050()})
		return err
	})
}

func BenchmarkTable2LA3PerRun(b *testing.B) {
	benchIterative(b, "LA-3", func(bis *partition.Bisection, _ int64) error {
		_, err := la.Partition(bis, la.Config{K: 3, Balance: partition.Exact5050()})
		return err
	})
}

// BenchmarkTable2Window: the WINDOW pipeline (ordering + sweep + FM runs).
func BenchmarkTable2Window(b *testing.B) {
	for _, cname := range benchCircuits {
		c := circuit(b, cname)
		b.Run(cname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := window.Partition(c.H, window.Config{
					Balance: partition.Exact5050(), Runs: 5, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3 groups the 45-55% clustering-based methods of Table 3.
func BenchmarkTable3EIG1(b *testing.B) {
	for _, cname := range benchCircuits {
		c := circuit(b, cname)
		b.Run(cname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spectral.EIG1(c.H, spectral.EIG1Config{
					Balance: partition.B4555(), Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable3MELO(b *testing.B) {
	for _, cname := range benchCircuits {
		c := circuit(b, cname)
		b.Run(cname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spectral.MELO(c.H, spectral.MELOConfig{
					Balance: partition.B4555(), Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable3Paraboli(b *testing.B) {
	for _, cname := range benchCircuits {
		c := circuit(b, cname)
		b.Run(cname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := placement.Paraboli(c.H, placement.Config{
					Balance: partition.B4555(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure1 measures the Figure-1 analysis path (Calculator gains).
func BenchmarkFigure1(b *testing.B) {
	f := gen.Figure1()
	bis, err := partition.NewBisection(f.H, f.Sides)
	if err != nil {
		b.Fatal(err)
	}
	calc := core.NewCalculator(bis)
	for _, a := range f.Anchors {
		calc.Lock(a)
	}
	for u := range calc.P {
		calc.P[u] = 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for paper := 1; paper <= 11; paper++ {
			sum += calc.Gain(f.Node[paper])
		}
		if sum == 0 {
			b.Fatal("degenerate gains")
		}
	}
}

// BenchmarkScalingPROP sweeps circuit size, reproducing the §3.5 Θ(m log n)
// claim: ns/op should grow slightly super-linearly in m.
func BenchmarkScalingPROP(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		h, err := gen.Generate(gen.Params{
			Nodes: n, Nets: int(float64(n) * 1.05), Pins: int(float64(n) * 3.6), Seed: int64(n),
		})
		if err != nil {
			b.Fatal(err)
		}
		bal := partition.Exact5050()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bis, err := partition.NewBisection(h, partition.RandomSides(h, bal, rand.New(rand.NewSource(int64(i)))))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Partition(bis, core.DefaultConfig(bal)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation times the PROP design-choice variants of DESIGN.md §5
// (cut-quality ablations are in `cmd/bench -ablation`).
func BenchmarkAblation(b *testing.B) {
	c := circuit(b, "balu")
	bal := partition.Exact5050()
	variants := map[string]func(*core.Config){
		"default":       func(*core.Config) {},
		"init=det":      func(cfg *core.Config) { cfg.Init = core.InitDeterministic },
		"refinements=1": func(cfg *core.Config) { cfg.Refinements = 1 },
		"refinements=4": func(cfg *core.Config) { cfg.Refinements = 4 },
		"topK=0":        func(cfg *core.Config) { cfg.TopK = 0 },
		"topK=20":       func(cfg *core.Config) { cfg.TopK = 20 },
	}
	for name, mod := range variants {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bis, err := partition.NewBisection(c.H, partition.RandomSides(c.H, bal, rand.New(rand.NewSource(int64(i)))))
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig(bal)
				mod(&cfg)
				if _, err := core.Partition(bis, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKWay8 measures the recursive 8-way driver (paper §5 extension).
func BenchmarkKWay8(b *testing.B) {
	n, err := prop.Benchmark("struct")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := prop.KWay(n, 8, prop.Options{Algorithm: prop.AlgoFM, Runs: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessQuick exercises the full table pipeline on the two
// smallest circuits with tiny run counts, guarding the cmd/bench path.
func BenchmarkHarnessQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunSuite(bench.Options{MaxNodes: 850, Runs: 2, Seed: int64(i)}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPassEngine times one full FM-bucket partition run on the largest
// suite circuit from a fixed random start — the canonical workload of the
// shared locked-move pass engine, for profiling and A/B runs with
// go test -bench. The repository benchmark (perfbench) times FM on every
// change through its suite workload's fm.fm_ms layer.
func BenchmarkPassEngine(b *testing.B) {
	c := circuit(b, "industry2")
	bal := partition.Exact5050()
	sides := partition.RandomSides(c.H, bal, rand.New(rand.NewSource(7)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bis, err := partition.NewBisection(c.H, sides)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fm.Partition(bis, fm.Config{Balance: bal, Selector: fm.Bucket}); err != nil {
			b.Fatal(err)
		}
	}
}
