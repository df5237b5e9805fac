package bench

import (
	"fmt"
	"io"

	"prop"
	"prop/internal/gen"
	"prop/internal/partition"
)

// Options scales the experiment matrix.
type Options struct {
	// MaxNodes restricts the suite to circuits of at most this many nodes
	// (0 = all sixteen).
	MaxNodes int
	// Runs is the paper's base multi-start count (20). FM runs 5×Runs
	// (→ FM100), LA-2 runs 2×Runs (→ the ×40 comparison in Table 2's
	// caption), LA-3 and PROP run Runs each.
	Runs int
	// TreeTimingRuns is how many FM-tree runs to time for Table 4 (they do
	// not contribute cuts; 0 selects max(2, Runs/5)).
	TreeTimingRuns int
	Seed           int64
	// Skip45 skips the Table-3 (45-55%) methods.
	Skip45 bool
}

// CircuitResult holds every measurement for one circuit.
type CircuitResult struct {
	Spec  gen.SuiteSpec
	Stats prop.Stats
	// S5050 and S4555 map method name → series under the respective
	// balance criterion.
	S5050 map[string]Series
	S4555 map[string]Series
}

// RunSuite synthesizes the suite and runs the full method matrix,
// reporting progress to progress (nil for silent).
func RunSuite(opts Options, progress io.Writer) ([]CircuitResult, error) {
	if opts.Runs == 0 {
		opts.Runs = 20
	}
	if opts.TreeTimingRuns == 0 {
		opts.TreeTimingRuns = opts.Runs / 5
		if opts.TreeTimingRuns < 2 {
			opts.TreeTimingRuns = 2
		}
	}
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	m5050 := []Method{
		{Name: "FM", Algo: prop.AlgoFM, Runs: 5 * opts.Runs},
		{Name: "FM-tree", Algo: prop.AlgoFMTree, Runs: opts.TreeTimingRuns},
		{Name: "LA-2", Algo: prop.AlgoLA, Runs: 2 * opts.Runs, LADepth: 2},
		{Name: "LA-3", Algo: prop.AlgoLA, Runs: opts.Runs, LADepth: 3},
		{Name: "WINDOW", Algo: prop.AlgoWindow, Runs: opts.Runs},
		{Name: "PROP", Algo: prop.AlgoPROP, Runs: opts.Runs},
	}
	m4555 := []Method{
		{Name: "EIG1", Algo: prop.AlgoEIG1},
		{Name: "MELO", Algo: prop.AlgoMELO},
		{Name: "Paraboli", Algo: prop.AlgoParaboli},
		{Name: "PROP", Algo: prop.AlgoPROP, Runs: opts.Runs},
	}
	var out []CircuitResult
	for _, spec := range gen.Table1() {
		if opts.MaxNodes > 0 && spec.Nodes > opts.MaxNodes {
			continue
		}
		n, err := prop.Benchmark(spec.Name)
		if err != nil {
			return nil, err
		}
		// Each circuit gets its own seed block; 45-55 runs start 50000 in.
		seed := opts.Seed + int64(len(out))*100000
		res := CircuitResult{
			Spec:  spec,
			Stats: n.Stats(),
			S5050: map[string]Series{},
			S4555: map[string]Series{},
		}
		for _, m := range m5050 {
			s, err := RunSeries(n, partition.Exact5050(), m, seed)
			if err != nil {
				return nil, err
			}
			res.S5050[m.Name] = s
			logf("%s 50-50 %-8s best=%-6.0f %.3fs/run\n", spec.Name, m.Name, s.BestOf(len(s.Cuts)), s.PerRun.Seconds())
		}
		if !opts.Skip45 {
			for _, m := range m4555 {
				s, err := RunSeries(n, partition.B4555(), m, seed+50000)
				if err != nil {
					return nil, err
				}
				res.S4555[m.Name] = s
				logf("%s 45-55 %-8s best=%-6.0f %.3fs/run\n", spec.Name, m.Name, s.BestOf(len(s.Cuts)), s.PerRun.Seconds())
			}
		}
		out = append(out, res)
	}
	return out, nil
}

func specOf(name string) gen.SuiteSpec {
	for _, s := range gen.Table1() {
		if s.Name == name {
			return s
		}
	}
	return gen.SuiteSpec{Name: name}
}
