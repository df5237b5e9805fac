package core

import (
	"math/rand"
	"testing"

	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// The hot-path microbenchmarks behind EXPERIMENTS.md's before/after table:
// the fused flat gain kernel, the exact product rebuild, the refinement
// fixpoint and one full PROP pass. Run with
// go test -run=NONE -bench=. -benchmem ./internal/core.

func benchCircuit(b *testing.B) *hypergraph.Hypergraph {
	b.Helper()
	h, err := gen.Generate(gen.Params{Nodes: 4000, Nets: 4400, Pins: 15200, Seed: 97})
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func benchEngine(b *testing.B, h *hypergraph.Hypergraph) *passEngine {
	b.Helper()
	cfg := DefaultConfig(partition.Exact5050())
	rng := rand.New(rand.NewSource(13))
	bis, err := partition.NewBisection(h, partition.RandomSides(h, cfg.Balance, rng))
	if err != nil {
		b.Fatal(err)
	}
	return newPassEngine(bis, cfg)
}

// BenchmarkGain measures the fused Θ(deg) gain kernel over every node.
func BenchmarkGain(b *testing.B) {
	h := benchCircuit(b)
	e := benchEngine(b, h)
	e.calc.ResetLocks()
	e.seedProbabilities()
	n := h.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for u := 0; u < n; u++ {
			sink += e.calc.Gain(u)
		}
	}
	_ = sink
}

// BenchmarkRebuild measures the exact full product rebuild (the per-sweep
// cost the dirty-net refinement removes).
func BenchmarkRebuild(b *testing.B) {
	h := benchCircuit(b)
	e := benchEngine(b, h)
	e.calc.ResetLocks()
	e.seedProbabilities()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.calc.Rebuild()
	}
}

// BenchmarkRefine measures the seeded gain↔probability fixpoint (steps 3–4
// of Fig. 2) with the paper's two refinement iterations.
func BenchmarkRefine(b *testing.B) {
	h := benchCircuit(b)
	e := benchEngine(b, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.calc.ResetLocks()
		e.seedProbabilities()
		e.refine()
	}
}

// BenchmarkPassFlat measures one full PROP pass (refine + move/lock +
// rollback) from a fresh random bisection.
func BenchmarkPassFlat(b *testing.B) {
	h := benchCircuit(b)
	cfg := DefaultConfig(partition.Exact5050())
	rng := rand.New(rand.NewSource(13))
	sides := partition.RandomSides(h, cfg.Balance, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bis, err := partition.NewBisection(h, append([]uint8(nil), sides...))
		if err != nil {
			b.Fatal(err)
		}
		e := newPassEngine(bis, cfg)
		b.StartTimer()
		e.loop().RunPass()
	}
}
