package core

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"prop/internal/gen"
	"prop/internal/obs"
	"prop/internal/partition"
)

func obsTestEngine(t testing.TB, tracer *obs.Tracer) *passEngine {
	t.Helper()
	h, err := gen.Generate(gen.Params{Nodes: 200, Nets: 230, Pins: 760, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(partition.Exact5050())
	cfg.Tracer = tracer
	rng := rand.New(rand.NewSource(5))
	bis, err := partition.NewBisection(h, partition.RandomSides(h, cfg.Balance, rng))
	if err != nil {
		t.Fatal(err)
	}
	return newPassEngine(bis, cfg)
}

// TestEmitPassNilTracerZeroAllocs pins the zero-cost-when-disabled
// contract: with a nil tracer, the per-pass emission path must not
// allocate at all.
func TestEmitPassNilTracerZeroAllocs(t *testing.T) {
	e := obsTestEngine(t, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		e.emitPass(0, 42, 3, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("emitPass with nil tracer allocates %g/op, want 0", allocs)
	}
}

// TestEmitPassTracedCountsEvents sanity-checks the traced path through
// the same helper the benchmark uses.
func TestEmitPassTracedCountsEvents(t *testing.T) {
	tr := obs.New(io.Discard, obs.LevelPass)
	e := obsTestEngine(t, tr)
	for i := 0; i < 5; i++ {
		e.emitPass(i, 42, 3, time.Millisecond)
	}
	if tr.Events() != 5 {
		t.Errorf("events = %d, want 5", tr.Events())
	}
}

// BenchmarkEmitPassNilTracer measures the disabled-tracer emission cost
// (expected: ~1ns predicated branch, 0 allocs/op).
func BenchmarkEmitPassNilTracer(b *testing.B) {
	e := obsTestEngine(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.emitPass(i, 42, 3, time.Millisecond)
	}
}

// BenchmarkEmitPassDiscardTracer measures the enabled-tracer emission
// cost against an io.Discard sink — the encoding overhead alone.
func BenchmarkEmitPassDiscardTracer(b *testing.B) {
	e := obsTestEngine(b, obs.New(io.Discard, obs.LevelPass))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.emitPass(i, 42, 3, time.Millisecond)
	}
}

// TestPassRefreshCounters: an untraced pass still counts its refresh
// effort, the counters add up, and the change stamps skip most refreshes.
func TestPassRefreshCounters(t *testing.T) {
	e := obsTestEngine(t, nil)
	e.runPass()
	var ev obs.Pass
	e.FillPass(&ev)
	n := e.b.H.NumNodes()
	if ev.SweptNodes < n || ev.Refreshes == 0 {
		t.Fatalf("swept %d (want ≥ %d), refreshes %d (want > 0)", ev.SweptNodes, n, ev.Refreshes)
	}
	if ev.GainEvals != ev.SweptNodes+ev.Refreshes-ev.StampSkips {
		t.Errorf("gain evals %d, want swept %d + refreshes %d − stamp skips %d",
			ev.GainEvals, ev.SweptNodes, ev.Refreshes, ev.StampSkips)
	}
	if ev.StampSkips*2 < ev.Refreshes || ev.StampSkips > ev.Refreshes {
		t.Errorf("stamps skipped %d of %d refreshes, want at least half", ev.StampSkips, ev.Refreshes)
	}
	t.Logf("swept %d, refreshes %d, stamp skips %d", ev.SweptNodes, ev.Refreshes, ev.StampSkips)
}
