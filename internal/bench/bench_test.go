package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"prop"
	"prop/internal/gen"
	"prop/internal/partition"
)

// TestSeriesBestOfAndMean: prefix-best and mean arithmetic.
func TestSeriesBestOfAndMean(t *testing.T) {
	s := Series{Cuts: []float64{10, 7, 12, 5, 9}}
	cases := []struct {
		k    int
		want float64
	}{{1, 10}, {2, 7}, {3, 7}, {4, 5}, {99, 5}}
	for _, c := range cases {
		if got := s.BestOf(c.k); got != c.want {
			t.Errorf("BestOf(%d) = %g, want %g", c.k, got, c.want)
		}
	}
	if m := s.Mean(); m != 8.6 {
		t.Errorf("Mean = %g, want 8.6", m)
	}
}

// TestImprovementFormula matches the paper's definition: (improvement /
// larger cutset)·100.
func TestImprovementFormula(t *testing.T) {
	cases := []struct {
		x, prop, want float64
	}{
		{245, 154, (245.0 - 154) / 245 * 100}, // PROP better
		{154, 245, (154.0 - 245) / 245 * 100}, // PROP worse (negative)
		{100, 100, 0},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := Improvement(c.x, c.prop); got != c.want {
			t.Errorf("Improvement(%g, %g) = %g, want %g", c.x, c.prop, got, c.want)
		}
	}
}

// TestRunSuiteSmall exercises the whole harness on the smallest circuit
// with minimal runs and checks every table renders with plausible content.
func TestRunSuiteSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	results, err := RunSuite(Options{MaxNodes: 850, Runs: 2, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// balu (801) and p1 (833) are the circuits at or below 850 nodes.
	if len(results) != 2 || results[0].Spec.Name != "balu" || results[1].Spec.Name != "p1" {
		t.Fatalf("suite circuits = %d", len(results))
	}
	r := results[0]
	for _, m := range []string{"FM", "FM-tree", "LA-2", "LA-3", "WINDOW", "PROP"} {
		s, ok := r.S5050[m]
		if !ok || len(s.Cuts) == 0 {
			t.Errorf("missing 50-50 series %s", m)
			continue
		}
		if s.BestOf(len(s.Cuts)) <= 0 {
			t.Errorf("%s: nonpositive cut", m)
		}
	}
	for _, m := range []string{"EIG1", "MELO", "Paraboli", "PROP"} {
		if _, ok := r.S4555[m]; !ok {
			t.Errorf("missing 45-55 series %s", m)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, results)
	WriteTable2(&buf, results, 2)
	WriteTable3(&buf, results, 2)
	WriteTable4(&buf, results, 2)
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "balu", "Total", "PROP"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
}

// TestWriteFigure1Content: the rendered example carries the paper's key
// numbers.
func TestWriteFigure1Content(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigure1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"2.0016", "2.0400", "2.6400", "1.8000", "-0.4920", "-0.3000", "best node: 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 output missing %q", want)
		}
	}
}

// TestWriteScalingRuns: the scaling study runs on tiny sizes.
func TestWriteScalingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling run")
	}
	var buf bytes.Buffer
	if err := WriteScaling(&buf, []int{500, 1000}, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "m·log2 n") {
		t.Error("scaling output malformed")
	}
}

// TestMethodsProduceFeasibleCuts: every kind of Method yields runs whose
// cuts are ≥ 0 and deterministic in the seed, with one cut per run for
// the multi-start methods and the result's cut for the rest.
func TestMethodsProduceFeasibleCuts(t *testing.T) {
	n, err := prop.Generate(prop.GenParams{Nodes: 220, Nets: 240, Pins: 820, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	bal := partition.Exact5050()
	for _, c := range []struct {
		m    Method
		cuts int
	}{
		{Method{Name: "PROP", Algo: prop.AlgoPROP, Runs: 2}, 2},
		{Method{Name: "LA-2", Algo: prop.AlgoLA, Runs: 2, LADepth: 2}, 2},
		{Method{Name: "WINDOW", Algo: prop.AlgoWindow, Runs: 2}, 1},
		{Method{Name: "EIG1", Algo: prop.AlgoEIG1}, 1},
		{Method{Name: "MELO", Algo: prop.AlgoMELO}, 1},
		{Method{Name: "Paraboli", Algo: prop.AlgoParaboli}, 1},
	} {
		m := c.m
		s1, err := RunSeries(n, bal, m, 7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		s2, err := RunSeries(n, bal, m, 7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(s1.Cuts) != c.cuts {
			t.Errorf("%s: %d cuts, want %d", m.Name, len(s1.Cuts), c.cuts)
		}
		for i := range s1.Cuts {
			if s1.Cuts[i] < 0 {
				t.Errorf("%s: negative cut", m.Name)
			}
			if s1.Cuts[i] != s2.Cuts[i] {
				t.Errorf("%s: nondeterministic run %d: %g vs %g", m.Name, i, s1.Cuts[i], s2.Cuts[i])
			}
		}
	}
}

// TestRunIncrementalSmall: the ECO study measures the product path. Its
// warm cut is prop.Repartition at Runs 1 from the base portfolio's sides,
// and its cold cut is prop.Partition on the edited netlist at seed+1.
func TestRunIncrementalSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("incremental run")
	}
	const runs, seed, frac = 2, 5, 0.05
	rep, err := RunIncremental([]string{"balu"}, []float64{frac}, runs, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(rep.Records))
	}
	rec := rep.Records[0]

	base, err := prop.Benchmark("balu")
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.SuiteCircuit(specOf("balu"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := gen.ECO(c.H, gen.ECOParams{Fraction: frac, Seed: seed + int64(frac*1000)})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := prop.Partition(base, prop.Options{Runs: runs, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	edited, warm, err := prop.Repartition(base, prev.Sides, d, prop.Options{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := prop.Partition(edited, prop.Options{Runs: runs, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "balu" || rec.Fraction != frac || rec.Nodes != edited.NumNodes() || rec.Nets != edited.NumNets() {
		t.Errorf("record = %+v, want balu at %g on %d nodes, %d nets", rec, frac, edited.NumNodes(), edited.NumNets())
	}
	if rec.WarmCut != warm.CutCost {
		t.Errorf("warm_cut = %g, prop.Repartition at Runs 1 = %g", rec.WarmCut, warm.CutCost)
	}
	if rec.ColdCut != cold.CutCost {
		t.Errorf("cold_cut = %g, prop.Partition at Runs %d = %g", rec.ColdCut, runs, cold.CutCost)
	}
}

// TestCheckScale: each scale gate rejects a report that breaks it and
// names itself in the error, and the committed BENCH_scale.json passes.
func TestCheckScale(t *testing.T) {
	f, err := os.Open("../../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	committed, err := ReadScale(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckScale(committed); err != nil {
		t.Errorf("committed BENCH_scale.json: %v", err)
	}

	good := func() ScaleReport {
		return ScaleReport{Rows: []ScaleRow{
			{Nodes: 10_000, RSSOverArena: 6.4, CheckOK: true},
			{Nodes: 1_000_000, RSSOverArena: 1.78, CheckOK: true},
		}}
	}
	if err := CheckScale(good()); err != nil {
		t.Errorf("passing report: %v", err)
	}
	noRows := ScaleReport{}
	recount := good()
	recount.Rows[0].CheckOK = false
	rss := good()
	rss.Rows[1].RSSOverArena = 2.01
	worse := good()
	worse.NLevelWorse = 1
	for _, c := range []struct {
		gate string
		rep  ScaleReport
	}{{"rows", noRows}, {"check_ok", recount}, {"rss_over_arena", rss}, {"nlevel_worse", worse}} {
		err := CheckScale(c.rep)
		if err == nil || !strings.Contains(err.Error(), "gate "+c.gate+":") {
			t.Errorf("%s gate: CheckScale = %v, want an error naming it", c.gate, err)
		}
	}
}
