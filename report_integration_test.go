package prop_test

import (
	"bytes"
	"testing"

	"prop"
	"prop/internal/obs/report"
)

// TestReportIndustry2PhaseCoverage runs a traced multilevel partition of
// industry2 and aggregates the trace into the run report: the phase
// wall-time tree must account for at least 95% of the run wall clock —
// the pipeline's stages are all instrumented, with no large untracked
// gaps — and the trace must aggregate cleanly (no malformed events).
func TestReportIndustry2PhaseCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n, err := prop.Benchmark("industry2")
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	tr := prop.NewTracer(&trace, prop.TracePasses)
	if _, err := prop.Partition(n, prop.Options{
		Algorithm: prop.AlgoMLPROP, Seed: 7, Tracer: tr, TraceID: "cov",
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	rep, err := report.Read(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Malformed != 0 {
		t.Errorf("trace has %d malformed events", rep.Malformed)
	}
	if rep.Runs == 0 || rep.RunWallUS == 0 {
		t.Fatalf("report saw no run spans: %+v", rep)
	}
	if rep.PhaseCoveragePct < 95 {
		t.Errorf("phase coverage %.1f%% of run wall, want ≥ 95%%", rep.PhaseCoveragePct)
	}
	// The multilevel pipeline's stages all appear in the tree.
	flat := report.Flatten(rep)
	for _, path := range []string{"multilevel", "multilevel/coarsen", "multilevel/initial", "multilevel/uncoarsen"} {
		if flat[path] == nil || flat[path].WallUS <= 0 {
			t.Errorf("phase tree missing %q: %v", path, flat[path])
		}
	}
}

// TestGoldenPhaseTracingInvariant pins the observation-only contract for
// the phase-span emitters specifically: the multilevel path (the deepest
// phase nesting) must produce a bit-identical partition with phase
// tracing on and off.
func TestGoldenPhaseTracingInvariant(t *testing.T) {
	n, err := prop.Benchmark("struct")
	if err != nil {
		t.Fatal(err)
	}
	opts := prop.Options{Algorithm: prop.AlgoMLPROP, Seed: 7}
	base, err := prop.Partition(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := golden{base.CutCost, base.BestRun, sideHash(base.Sides)}

	var trace bytes.Buffer
	traced := opts
	traced.Tracer = prop.NewTracer(&trace, prop.TraceRuns)
	res, err := prop.Partition(n, traced)
	if err != nil {
		t.Fatal(err)
	}
	if got := (golden{res.CutCost, res.BestRun, sideHash(res.Sides)}); got != want {
		t.Errorf("phase-traced ml-prop: got {cost:%g best:%d hash:%#x}, want {cost:%g best:%d hash:%#x}",
			got.cost, got.bestRun, got.hash, want.cost, want.bestRun, want.hash)
	}
	// Even at run granularity the phase spans are present and nested.
	rep, err := report.Read(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Malformed != 0 || report.Flatten(rep)["multilevel"] == nil {
		t.Errorf("run-level trace lacks a clean phase tree (malformed %d)", rep.Malformed)
	}
}

// TestNLevelUncoarsenSegments: the n-level unwind emits one "uncoarsen"
// span per checkpoint segment (a doubling of the alive count), so a
// traced gen600 run carries several per cycle rather than one.
// The trace is valid, and tracing leaves the cut and the side assignment
// unchanged.
func TestNLevelUncoarsenSegments(t *testing.T) {
	n := nlevelCircuit(t, "gen600")
	opts := prop.Options{Algorithm: prop.AlgoMLPROP, Seed: 7, ML: &prop.MLParams{Mode: "nlevel"}}
	base, err := prop.Partition(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	traced := opts
	traced.Tracer = prop.NewTracer(&trace, prop.TracePasses)
	res, err := prop.Partition(n, traced)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sideHash(res.Sides), sideHash(base.Sides); res.CutCost != base.CutCost || got != want {
		t.Errorf("traced run: cut %g hash %#x, untraced cut %g hash %#x", res.CutCost, got, base.CutCost, want)
	}
	rep, err := report.Read(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// One "initial" span opens each cycle; every cycle's unwind must be
	// split into more than one segment.
	flat := report.Flatten(rep)
	init, un := flat["multilevel/initial"], flat["multilevel/uncoarsen"]
	if init == nil || un == nil || un.Count <= init.Count {
		t.Errorf("want more uncoarsen spans than cycles: initial %+v, uncoarsen %+v", init, un)
	}
	if rep.Violation != "" {
		t.Errorf("invalid n-level trace: %s", rep.Violation)
	}
}
