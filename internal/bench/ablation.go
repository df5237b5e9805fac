package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"prop/internal/core"
	"prop/internal/gen"
	"prop/internal/partition"
)

// ablationVariant is one PROP configuration under test.
type ablationVariant struct {
	name string
	mod  func(*core.Config)
}

// WriteAblation sweeps the design choices the paper calls out (§3 and
// DESIGN.md §5) — probability seeding method, number of gain↔probability
// refinement iterations, top-K refresh width, probability clamps and gain
// thresholds — and reports best-of-10 cuts and per-run times on three
// mid-size suite circuits. It drives core.Partition directly rather than
// prop.Partition, which runs PROP at the paper's parameters only.
func WriteAblation(w io.Writer, seed int64) error {
	variants := []ablationVariant{
		{"paper-default", func(*core.Config) {}},
		{"init=deterministic", func(c *core.Config) { c.Init = core.InitDeterministic }},
		{"refinements=0", func(c *core.Config) { c.Refinements = 0 }},
		{"refinements=1", func(c *core.Config) { c.Refinements = 1 }},
		{"refinements=4", func(c *core.Config) { c.Refinements = 4 }},
		{"topK=0", func(c *core.Config) { c.TopK = 0 }},
		{"topK=20", func(c *core.Config) { c.TopK = 20 }},
		{"pmin=0.1", func(c *core.Config) { c.PMin = 0.1 }},
		{"pmax=1.0", func(c *core.Config) { c.PMax = 1.0 }},
		{"gup=2,glo=-2", func(c *core.Config) { c.GUp, c.GLo = 2, -2 }},
		{"pinit=0.5", func(c *core.Config) { c.PInit = 0.5 }},
	}
	circuits := []string{"balu", "struct", "t3"}
	const runs = 10
	bal := partition.Exact5050()

	fmt.Fprintf(w, "PROP ablation study (best of %d runs per cell, 50-50%% balance)\n", runs)
	fmt.Fprintf(w, "%-20s", "variant")
	for _, c := range circuits {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintf(w, " %12s\n", "total s/run")

	hs := map[string]gen.Circuit{}
	for _, name := range circuits {
		c, err := gen.SuiteCircuit(specOf(name))
		if err != nil {
			return err
		}
		hs[name] = c
	}

	for _, v := range variants {
		fmt.Fprintf(w, "%-20s", v.name)
		var elapsed time.Duration
		var totalRuns int
		for _, name := range circuits {
			c := hs[name]
			cfg := core.DefaultConfig(bal)
			v.mod(&cfg)
			best := -1.0
			start := time.Now()
			for r := 0; r < runs; r++ {
				sides := partition.RandomSides(c.H, bal, rand.New(rand.NewSource(seed+int64(r))))
				b, err := partition.NewBisection(c.H, sides)
				if err != nil {
					return err
				}
				res, err := core.Partition(b, cfg)
				if err != nil {
					return err
				}
				if best < 0 || res.CutCost < best {
					best = res.CutCost
				}
			}
			elapsed += time.Since(start)
			totalRuns += runs
			fmt.Fprintf(w, " %10.0f", best)
		}
		fmt.Fprintf(w, " %12.3f\n", elapsed.Seconds()/float64(totalRuns))
	}
	return nil
}
