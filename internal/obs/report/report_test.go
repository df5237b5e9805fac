package report

import (
	"math"
	"strings"
	"testing"
	"time"

	"prop/internal/obs"
)

// goldenTrace is a hand-written industry2-style trace: two portfolio runs
// with nested multilevel-ish phases, converging pass curves and flow
// rounds. Hand-written so every aggregate is exactly checkable.
const goldenTrace = `{"ts_us":0,"ev":"run_start","run":0,"id":"g"}
{"ts_us":1,"ev":"phase_start","run":0,"name":"multilevel","depth":0,"level":0}
{"ts_us":2,"ev":"phase_start","run":0,"name":"coarsen","depth":1,"level":0}
{"ts_us":50,"ev":"phase","run":0,"name":"coarsen","depth":1,"level":0,"wall_us":48}
{"ts_us":51,"ev":"phase_start","run":0,"name":"coarsen","depth":1,"level":1}
{"ts_us":81,"ev":"phase","run":0,"name":"coarsen","depth":1,"level":1,"wall_us":30}
{"ts_us":82,"ev":"phase_start","run":0,"name":"initial","depth":1,"level":0}
{"ts_us":100,"ev":"phase_start","run":0,"name":"prop","depth":2,"level":0}
{"ts_us":150,"ev":"pass","run":0,"algo":"prop","pass":0,"cut":600,"gmax":4,"moves":100,"kept":60,"locked":100,"refreshes":300,"gain_evals":900,"stamp_skips":210,"gain_nets":2500,"gain_terms":800,"dur_us":40}
{"ts_us":190,"ev":"pass","run":0,"algo":"prop","pass":1,"cut":520,"gmax":2,"moves":80,"kept":30,"locked":80,"refreshes":100,"gain_evals":700,"stamp_skips":90,"gain_nets":2100,"gain_terms":700,"dur_us":35}
{"ts_us":200,"ev":"phase","run":0,"name":"prop","depth":2,"level":0,"wall_us":100}
{"ts_us":201,"ev":"phase","run":0,"name":"initial","depth":1,"level":0,"wall_us":119}
{"ts_us":400,"ev":"phase","run":0,"name":"multilevel","depth":0,"level":0,"wall_us":399}
{"ts_us":500,"ev":"run_end","run":0,"id":"g","dur_us":500}
{"ts_us":510,"ev":"run_start","run":1,"id":"g"}
{"ts_us":511,"ev":"phase_start","run":1,"name":"multilevel","depth":0,"level":0}
{"ts_us":600,"ev":"pass","run":1,"algo":"prop","pass":0,"cut":580,"gmax":3,"moves":100,"kept":40,"locked":100,"dur_us":50}
{"ts_us":700,"ev":"pass","run":1,"algo":"prop","pass":1,"cut":550,"gmax":1,"moves":60,"kept":10,"locked":60,"dur_us":30}
{"ts_us":890,"ev":"phase","run":1,"name":"multilevel","depth":0,"level":0,"wall_us":379}
{"ts_us":900,"ev":"flow","run":1,"round":0,"boundary":30,"corridor":200,"nets":400,"flow":12,"cut_before":550,"cut_after":540,"adopted":1,"dur_us":80}
{"ts_us":980,"ev":"flow","run":1,"round":1,"boundary":28,"corridor":190,"nets":380,"flow":12,"cut_before":540,"cut_after":540,"adopted":0,"dur_us":70}
{"ts_us":1000,"ev":"run_end","run":1,"id":"g","dur_us":490}
`

func readGolden(t *testing.T) *RunReport {
	t.Helper()
	rep, err := Read(strings.NewReader(goldenTrace))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestReadGoldenHeader(t *testing.T) {
	rep := readGolden(t)
	if rep.Events != 22 || rep.Runs != 2 || rep.Malformed != 0 {
		t.Errorf("events/runs/malformed = %d/%d/%d", rep.Events, rep.Runs, rep.Malformed)
	}
	if rep.RunWallUS != 990 {
		t.Errorf("run wall = %d, want 990", rep.RunWallUS)
	}
	if rep.SpanUS != 1000 {
		t.Errorf("span = %d, want 1000", rep.SpanUS)
	}
}

func TestPhaseTreeSums(t *testing.T) {
	rep := readGolden(t)
	flat := Flatten(rep)
	// Both runs' multilevel spans aggregate under one node.
	ml := flat["multilevel"]
	if ml == nil || ml.Count != 2 || ml.WallUS != 399+379 {
		t.Fatalf("multilevel node = %+v", ml)
	}
	co := flat["multilevel/coarsen"]
	if co == nil || co.Count != 2 || co.WallUS != 48+30 {
		t.Fatalf("coarsen node = %+v", co)
	}
	pr := flat["multilevel/initial/prop"]
	if pr == nil || pr.Count != 1 || pr.WallUS != 100 {
		t.Fatalf("prop node = %+v", pr)
	}
	// Children never sum past their parent in this fixture.
	if sum := co.WallUS + flat["multilevel/initial"].WallUS; sum > ml.WallUS {
		t.Errorf("children wall %d exceeds parent %d", sum, ml.WallUS)
	}
	// Only multilevel is top-level; coverage = 778/990.
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "multilevel" {
		t.Fatalf("top-level phases = %+v", rep.Phases)
	}
	want := 100 * 778.0 / 990.0
	if math.Abs(rep.PhaseCoveragePct-want) > 1e-9 {
		t.Errorf("coverage = %g, want %g", rep.PhaseCoveragePct, want)
	}
}

func TestConvergenceMonotonicBest(t *testing.T) {
	rep := readGolden(t)
	if len(rep.Convergence) != 2 {
		t.Fatalf("convergence = %+v", rep.Convergence)
	}
	p0, p1 := rep.Convergence[0], rep.Convergence[1]
	if p0.Pass != 0 || p0.Runs != 2 || p0.BestCut != 580 || p0.MeanCut != 590 || p0.BestSoFar != 580 {
		t.Errorf("pass 0 = %+v", p0)
	}
	if p1.Pass != 1 || p1.Runs != 2 || p1.BestCut != 520 || p1.MeanCut != 535 || p1.BestSoFar != 520 {
		t.Errorf("pass 1 = %+v", p1)
	}
	for i := 1; i < len(rep.Convergence); i++ {
		if rep.Convergence[i].BestSoFar > rep.Convergence[i-1].BestSoFar {
			t.Errorf("best-so-far not monotone at pass %d", i)
		}
	}
	if rep.FinalBestCut != 520 {
		t.Errorf("final best cut = %g", rep.FinalBestCut)
	}
}

func TestMoveRoundFlowRates(t *testing.T) {
	rep := readGolden(t)
	m := rep.Moves
	if m.Passes != 4 || m.Moves != 340 || m.Kept != 140 || m.Locked != 340 {
		t.Errorf("moves = %+v", m)
	}
	if want := 100 * 140.0 / 340.0; math.Abs(m.AcceptRatePct-want) > 1e-9 {
		t.Errorf("accept rate = %g, want %g", m.AcceptRatePct, want)
	}
	// Only run 0's passes carry PROP's refresh counters.
	if m.Refreshes != 400 || m.GainEvals != 1600 || m.StampSkips != 300 || m.SkipRatePct != 75 ||
		m.GainNets != 4600 || m.GainTerms != 1500 {
		t.Errorf("gain effort = %+v", m)
	}
	f := rep.Flow
	if f == nil || f.Rounds != 2 || f.Adopted != 1 || f.AdoptionRatePct != 50 || f.CutImprovement != 10 {
		t.Fatalf("flow = %+v", f)
	}
}

func TestReadToleratesMalformed(t *testing.T) {
	trace := `{"ts_us":0,"ev":"phase_start","run":0,"name":"a","depth":0,"level":0}
not json at all
{"ts_us":5,"ev":"phase","run":0,"name":"mismatch","depth":0,"level":0,"wall_us":5}
{"ts_us":9,"ev":"phase_start","run":0,"name":"unclosed","depth":1,"level":0}
`
	rep, err := Read(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	// bad JSON + mismatched end + two unclosed starts at EOF.
	if rep.Malformed != 4 {
		t.Errorf("malformed = %d, want 4", rep.Malformed)
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	rep := readGolden(t)
	var sb strings.Builder
	if err := WriteText(&sb, rep, 5); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"runs 2", "phase coverage 78.6%",
		"multilevel", "coarsen", "top 4 phases",
		"convergence", "best-so-far",
		"moves: 4 passes",
		"gain effort: 1600 evaluations, 400 refreshes, 300 skipped by change stamps (75.0%); 4600 nets walked, 1500 terms recomputed",
		"flow: 2 rounds, 1 adopted (50.0%)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
	sb.Reset()
	if err := WriteJSON(&sb, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"phase_coverage_pct"`, `"best_so_far"`, `"adoption_rate_pct"`, `"gain_terms": 1500`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("json report missing %q", want)
		}
	}
}

// TestReadViolations feeds Read one small trace per schema rule and checks
// that it names the first broken rule and its line. Two valid traces, the
// hand-written golden and one from the real encoders holding every event
// kind, must give none.
func TestReadViolations(t *testing.T) {
	const (
		start = `{"ts_us":0,"ev":"run_start","run":0}`
		end   = `{"ts_us":9,"ev":"run_end","run":0,"dur_us":9}`
		open  = `{"ts_us":1,"ev":"phase_start","run":0,"name":"a","depth":0,"level":0}`
		close = `{"ts_us":2,"ev":"phase","run":0,"name":"a","depth":0,"level":0,"wall_us":1}`
		pass  = `{"ts_us":3,"ev":"pass","run":0,"algo":"prop","pass":0,"cut":5,"gmax":1,"moves":2,"kept":1,"locked":2,"dur_us":1}`
	)
	lines := func(ls ...string) string { return strings.Join(ls, "\n") + "\n" }
	for _, tc := range []struct {
		name, trace, want string
	}{
		{"empty line", lines(start, "", end), "line 2: empty line"},
		{"blank line", lines(start, "  ", end), "line 2: empty line"},
		{"not JSON", lines(start, "{not json", end), "line 2: invalid JSON"},
		{"unknown kind", lines(start, `{"ts_us":1,"ev":"bogus","run":0}`, end), `line 2: unknown event kind "bogus"`},
		{"missing field", lines(`{"ts_us":0,"ev":"run_start"}`, end), `line 1: run_start event missing field "run"`},
		{"wrong type", lines(start, strings.Replace(pass, `"gmax":1`, `"gmax":"1"`, 1), end),
			`line 2: pass event field "gmax" is string, want number`},
		{"null field", lines(start, strings.Replace(pass, `"cut":5`, `"cut":null`, 1), end),
			`line 2: pass event field "cut" is null, want number`},
		{"unreadable optional field", lines(start, strings.Replace(pass, `"dur_us":1`, `"dur_us":1,"gain_evals":"7"`, 1), end),
			"line 2: unreadable event"},
		{"negative ts_us", lines(`{"ts_us":-1,"ev":"run_start","run":0}`, end), "line 1: negative ts_us -1"},
		// Run 1 may start before run 0's last event; run 0 may not go back.
		{"ts_us backwards in a run", lines(`{"ts_us":5,"ev":"run_start","run":0}`,
			`{"ts_us":1,"ev":"run_start","run":1}`, `{"ts_us":4,"ev":"run_end","run":0,"dur_us":1}`,
			`{"ts_us":6,"ev":"run_end","run":1,"dur_us":5}`), "line 3: run 0 ts_us 4 went backwards (prev 5)"},
		{"phase_start depth", lines(start, open, open, end), `line 3: run 0 phase_start "a" depth 0, want 1 open spans`},
		{"phase end without a span", lines(start, close, end), `line 2: run 0 phase "a" ends with no open span`},
		{"phase end name", lines(start, open, strings.Replace(close, `"a"`, `"b"`, 1), end),
			`line 3: run 0 phase "b"/depth 0 ends, but "a"/depth 0 is open`},
		{"phase end depth", lines(start, open, strings.Replace(close, `"depth":0`, `"depth":1`, 1), end),
			`line 3: run 0 phase "a"/depth 1 ends, but "a"/depth 0 is open`},
		{"no events", "", "end of trace after line 0: no events"},
		{"unbalanced runs", lines(start, pass), "end of trace after line 2: unbalanced run spans: 1 run_start, 0 run_end"},
		{"open span", lines(start, open, pass, end),
			`end of trace after line 4: run 0 ends with 1 unclosed phase span(s), first "a"`},
		// Only the first violation is kept.
		{"first wins", lines(start, "", "{not json"), "line 2: empty line"},
	} {
		rep, err := Read(strings.NewReader(tc.trace))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.HasPrefix(rep.Violation, tc.want) {
			t.Errorf("%s: violation %q, want %q", tc.name, rep.Violation, tc.want)
		}
		var sb strings.Builder
		if err := WriteText(&sb, rep, 5); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "WARNING: invalid trace: "+tc.want) {
			t.Errorf("%s: text report lacks the violation:\n%s", tc.name, sb.String())
		}
	}

	var encoded strings.Builder
	tr := obs.New(&encoded, obs.LevelMove)
	tr.EmitDeltaApply(obs.DeltaApply{Structural: true, Nodes: 5, Nets: 4, Dur: time.Microsecond})
	for run := 0; run < 2; run++ {
		tr.EmitRunStart(obs.RunStart{ID: "enc", Run: run})
	}
	for run := 0; run < 2; run++ {
		outer := tr.StartPhase(run, "multilevel")
		inner := tr.StartPhaseLevel(run, "prop", 1)
		tr.EmitPass(obs.Pass{Algo: "prop", Run: run, Cut: 7, Moves: 2, Kept: 1, Locked: 2})
		tr.EmitMove(obs.Move{Run: run, Node: 3, Gain: 1})
		inner.End()
		tr.EmitFlowRound(obs.FlowRound{Run: run, CutBefore: 7, CutAfter: 6, Adopted: true})
		outer.End()
	}
	for run := 1; run >= 0; run-- {
		tr.EmitRunEnd(obs.RunEnd{ID: "enc", Run: run, Dur: time.Millisecond})
	}
	for name, trace := range map[string]string{"golden": goldenTrace, "encoded": encoded.String()} {
		rep, err := Read(strings.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violation != "" || rep.Malformed != 0 {
			t.Errorf("%s trace: violation %q, malformed %d", name, rep.Violation, rep.Malformed)
		}
		var sb strings.Builder
		if err := WriteJSON(&sb, rep); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sb.String(), "violation") {
			t.Errorf("%s trace: JSON report names a violation:\n%s", name, sb.String())
		}
	}
}
