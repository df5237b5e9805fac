package moves_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"prop/internal/moves"
	"prop/internal/obs"
)

// stubPass is a PassRunner that also implements PassFiller and does no
// work of its own, so Run's per-pass cost and its trace emission are all
// a test or benchmark of it sees. Every pass realizes G_max 1, so Run
// stops at maxPasses.
type stubPass struct{}

func (*stubPass) Algo() string                 { return "stub" }
func (*stubPass) Cut() float64                 { return 42 }
func (*stubPass) RunPass() (float64, int, int) { return 1, 7, 3 }

func (*stubPass) FillPass(ev obs.Pass) obs.Pass {
	ev.DirtyNets, ev.SweptNodes, ev.RefineIters = 11, 13, 2
	ev.Refreshes, ev.GainEvals, ev.StampSkips = 17, 25, 5
	ev.GainNets, ev.GainTerms = 90, 40
	return ev
}

// TestRunNilTracerZeroAllocs pins the zero-cost-when-disabled contract:
// with a nil tracer, driving passes through Run allocates nothing.
func TestRunNilTracerZeroAllocs(t *testing.T) {
	r := &stubPass{}
	allocs := testing.AllocsPerRun(1000, func() {
		if out := moves.Run(r, 3, nil, 0, nil); out.Passes != 3 {
			t.Fatalf("passes = %d, want 3", out.Passes)
		}
	})
	if allocs != 0 {
		t.Errorf("Run with a nil tracer allocates %g per 3 passes, want 0", allocs)
	}
}

// TestRunTracedZeroAllocs: with pass tracing on and events encoded to
// io.Discard, Run still allocates nothing. The event crosses the
// PassFiller interface by value; through a pointer it escaped to the heap
// once per traced pass.
func TestRunTracedZeroAllocs(t *testing.T) {
	r := &stubPass{}
	tr := obs.New(io.Discard, obs.LevelPass)
	allocs := testing.AllocsPerRun(1000, func() {
		if out := moves.Run(r, 3, tr, 0, nil); out.Passes != 3 {
			t.Fatalf("passes = %d, want 3", out.Passes)
		}
	})
	if allocs != 0 {
		t.Errorf("traced Run allocates %g per 3 passes, want 0", allocs)
	}
}

// TestRunTracedEmitsPassEvents: a pass-level tracer gets one pass event
// per pass, carrying the driver's fields and the filler's counters.
func TestRunTracedEmitsPassEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.New(&buf, obs.LevelPass)
	if out := moves.Run(&stubPass{}, 3, tr, 2, nil); out.Passes != 3 {
		t.Fatalf("passes = %d, want 3", out.Passes)
	}
	if tr.Events() != 3 {
		t.Fatalf("events = %d, want 3", tr.Events())
	}
	want := map[string]any{
		"ev": "pass", "algo": "stub", "run": 2.0, "cut": 42.0, "gmax": 1.0,
		"moves": 7.0, "kept": 3.0, "locked": 7.0,
		"dirty_nets": 11.0, "swept": 13.0, "refine_iters": 2.0,
		"refreshes": 17.0, "gain_evals": 25.0, "stamp_skips": 5.0,
		"gain_nets": 90.0, "gain_terms": 40.0,
	}
	sc := bufio.NewScanner(&buf)
	for pass := 0; sc.Scan(); pass++ {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", pass, err)
		}
		if ev["pass"] != float64(pass) {
			t.Errorf("line %d: pass %v", pass, ev["pass"])
		}
		for k, v := range want {
			if ev[k] != v {
				t.Errorf("line %d: %s = %v, want %v", pass, k, ev[k], v)
			}
		}
	}
}

// BenchmarkRunNilTracer measures Run's per-pass cost with tracing off
// (expected: a predicated branch, 0 allocs/op).
func BenchmarkRunNilTracer(b *testing.B) {
	r := &stubPass{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		moves.Run(r, 1, nil, 0, nil)
	}
}

// BenchmarkRunDiscardTracer measures Run's per-pass cost with pass events
// encoded to io.Discard: the emission overhead alone (0 allocs/op,
// pinned by TestRunTracedZeroAllocs).
func BenchmarkRunDiscardTracer(b *testing.B) {
	r := &stubPass{}
	tr := obs.New(io.Discard, obs.LevelPass)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		moves.Run(r, 1, tr, 0, nil)
	}
}
