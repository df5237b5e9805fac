package prop_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"prop"
)

// parTestNetlist builds one moderate instance shared by the parallel
// determinism tests.
func parTestNetlist(t testing.TB) *prop.Netlist {
	t.Helper()
	n, err := prop.Generate(prop.GenParams{Nodes: 600, Nets: 660, Pins: 2300, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestParallelDeterminism guards the engine's reduction order: for a fixed
// seed, the multi-start portfolio must return the identical cut AND the
// identical side assignment whether it runs on 1, 4, or NumCPU workers.
func TestParallelDeterminism(t *testing.T) {
	n := parTestNetlist(t)
	for _, algo := range []prop.Algorithm{prop.AlgoPROP, prop.AlgoFM} {
		var ref prop.Result
		for i, par := range []int{1, 4, runtime.NumCPU()} {
			res, err := prop.Partition(n, prop.Options{
				Algorithm: algo, Runs: 12, Seed: 5, Parallel: par,
			})
			if err != nil {
				t.Fatalf("%s par=%d: %v", algo, par, err)
			}
			if i == 0 {
				ref = res
				continue
			}
			if res.CutCost != ref.CutCost || res.CutNets != ref.CutNets || res.BestRun != ref.BestRun {
				t.Errorf("%s par=%d: cut (%g,%d) best run %d; par=1 gave (%g,%d) best run %d",
					algo, par, res.CutCost, res.CutNets, res.BestRun, ref.CutCost, ref.CutNets, ref.BestRun)
			}
			for u := range res.Sides {
				if res.Sides[u] != ref.Sides[u] {
					t.Fatalf("%s par=%d: side of node %d differs from sequential", algo, par, u)
				}
			}
		}
	}
}

// TestParallelDeterminismKWay does the same for recursive k-way, where
// both the portfolio and the recursion tree run concurrently.
func TestParallelDeterminismKWay(t *testing.T) {
	n := parTestNetlist(t)
	var ref prop.KWayResult
	for i, par := range []int{1, 4, runtime.NumCPU()} {
		res, err := prop.KWay(n, 4, prop.Options{
			Algorithm: prop.AlgoFM, Runs: 6, Seed: 3, Parallel: par,
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.CutCost != ref.CutCost || res.CutNets != ref.CutNets {
			t.Errorf("par=%d: cut (%g,%d), par=1 gave (%g,%d)",
				par, res.CutCost, res.CutNets, ref.CutCost, ref.CutNets)
		}
		for u := range res.Parts {
			if res.Parts[u] != ref.Parts[u] {
				t.Fatalf("par=%d: part of node %d differs from sequential", par, u)
			}
		}
	}
}

// TestParallelDeterminismKWayAnyK does the same for k that are not powers
// of two, where the recursion splits k into ⌈k/2⌉ and ⌊k/2⌋.
func TestParallelDeterminismKWayAnyK(t *testing.T) {
	n := parTestNetlist(t)
	for _, k := range []int{3, 5, 6, 7} {
		var ref prop.KWayResult
		for i, par := range []int{1, 4} {
			res, err := prop.KWay(n, k, prop.Options{Runs: 3, Seed: 2, Parallel: par})
			if err != nil {
				t.Fatalf("k=%d par=%d: %v", k, par, err)
			}
			if len(res.PartWeights) != k {
				t.Fatalf("k=%d par=%d: %d parts", k, par, len(res.PartWeights))
			}
			checkKWayWindows(t, n, res, 0.5, 0.5)
			if i == 0 {
				ref = res
				continue
			}
			if res.CutCost != ref.CutCost || res.CutNets != ref.CutNets {
				t.Errorf("k=%d par=%d: cut (%g,%d), par=1 gave (%g,%d)",
					k, par, res.CutCost, res.CutNets, ref.CutCost, ref.CutNets)
			}
			for u := range res.Parts {
				if res.Parts[u] != ref.Parts[u] {
					t.Fatalf("k=%d par=%d: part of node %d differs", k, par, u)
				}
			}
		}
	}
}

// TestKWayOnRunSerialized: under KWay, sibling bisections run their
// portfolios concurrently, yet OnRun calls stay serialized (the hook here
// appends to a slice without a lock, which -race would flag) and cover
// every run of every bisection: k = 4 makes 3 bisections of 2 runs each.
func TestKWayOnRunSerialized(t *testing.T) {
	n, err := prop.Benchmark("balu")
	if err != nil {
		t.Fatal(err)
	}
	var seen []prop.RunUpdate
	_, err = prop.KWay(n, 4, prop.Options{Runs: 2, Parallel: 2,
		OnRun: func(u prop.RunUpdate) { seen = append(seen, u) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Errorf("OnRun called %d times, want 6", len(seen))
	}
}

// TestOnRunHookSeesEveryRun checks the per-run progress hook fires once
// per run under parallel execution.
func TestOnRunHookSeesEveryRun(t *testing.T) {
	n := parTestNetlist(t)
	var runs atomic.Int32
	_, err := prop.Partition(n, prop.Options{
		Algorithm: prop.AlgoFM, Runs: 9, Seed: 1, Parallel: 4,
		OnRun: func(u prop.RunUpdate) {
			if u.CutNets <= 0 {
				t.Errorf("run %d reported degenerate cut %d", u.Run, u.CutNets)
			}
			runs.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 9 {
		t.Errorf("hook fired %d times, want 9", runs.Load())
	}
}

// TestPartitionCtxCancellation: an already-cancelled context aborts
// immediately with its error.
func TestPartitionCtxCancellation(t *testing.T) {
	n := parTestNetlist(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := prop.PartitionCtx(ctx, n, prop.Options{Algorithm: prop.AlgoPROP, Runs: 50, Parallel: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPartitionCtxTimeout: a tiny deadline on a large portfolio surfaces
// DeadlineExceeded rather than a partial result.
func TestPartitionCtxTimeout(t *testing.T) {
	n, err := prop.Generate(prop.GenParams{Nodes: 4000, Nets: 4400, Pins: 15000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = prop.PartitionCtx(ctx, n, prop.Options{Algorithm: prop.AlgoPROP, Runs: 1000, Parallel: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
