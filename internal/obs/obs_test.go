package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeLines parses a JSONL stream into one map per line.
func decodeLines(t *testing.T, s string) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func TestEventEncoding(t *testing.T) {
	var sb strings.Builder
	tr := New(&sb, LevelMove)
	tr.EmitRunStart(RunStart{ID: "r1", Run: 0})
	tr.EmitPass(Pass{Algo: "prop", ID: "r1", Run: 0, Pass: 1, Cut: 55.5, Gmax: 2.25,
		Moves: 10, Kept: 7, Locked: 10, DirtyNets: 3, SweptNodes: 40, RefineIters: 2,
		SweepWall: 3 * time.Microsecond, Refreshes: 90, GainEvals: 64, StampSkips: 66,
		GainNets: 250, GainTerms: 31, Dur: 1500 * time.Microsecond})
	tr.EmitMove(Move{Run: 0, Pass: 1, Node: 17, Gain: -1.5})
	tr.EmitRunEnd(RunEnd{ID: "r1", Run: 0, Dur: time.Millisecond, Err: "boom \"quoted\""})
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if tr.Events() != 4 {
		t.Fatalf("events = %d, want 4", tr.Events())
	}

	lines := decodeLines(t, sb.String())
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	for i, m := range lines {
		for _, key := range []string{"ts_us", "ev", "run"} {
			if _, ok := m[key]; !ok {
				t.Errorf("line %d missing required key %q: %v", i, key, m)
			}
		}
	}
	if lines[0]["ev"] != "run_start" || lines[0]["id"] != "r1" {
		t.Errorf("run_start = %v", lines[0])
	}
	p := lines[1]
	if p["ev"] != "pass" || p["algo"] != "prop" || p["cut"] != 55.5 || p["gmax"] != 2.25 ||
		p["pass"] != float64(1) || p["moves"] != float64(10) || p["kept"] != float64(7) ||
		p["dirty_nets"] != float64(3) || p["swept"] != float64(40) ||
		p["sweep_wall_us"] != float64(3) || p["refreshes"] != float64(90) ||
		p["gain_evals"] != float64(64) || p["stamp_skips"] != float64(66) ||
		p["gain_nets"] != float64(250) || p["gain_terms"] != float64(31) ||
		p["dur_us"] != float64(1500) {
		t.Errorf("pass = %v", p)
	}
	if lines[2]["ev"] != "move" || lines[2]["node"] != float64(17) || lines[2]["gain"] != -1.5 {
		t.Errorf("move = %v", lines[2])
	}
	if lines[3]["ev"] != "run_end" || lines[3]["err"] != `boom "quoted"` {
		t.Errorf("run_end = %v", lines[3])
	}
	// Empty optional strings are omitted entirely.
	var sb2 strings.Builder
	tr2 := New(&sb2, LevelRun)
	tr2.EmitRunStart(RunStart{Run: 3})
	if strings.Contains(sb2.String(), `"id"`) {
		t.Errorf("empty id not omitted: %s", sb2.String())
	}
}

// TestEncodersMatchSchema emits one event of every kind and checks each
// line against Schema, so an encoder and the table cannot drift apart:
// every required field is present with its JSON type, and every kind in
// the table has an encoder.
func TestEncodersMatchSchema(t *testing.T) {
	var sb strings.Builder
	tr := New(&sb, LevelMove)
	tr.EmitDeltaApply(DeltaApply{Structural: true, Nodes: 5, Nets: 4, Collapsed: 1, Dur: time.Microsecond})
	tr.EmitRunStart(RunStart{Run: 1})
	sp := tr.StartPhase(1, "prop")
	tr.EmitPass(Pass{Algo: "prop", Run: 1, Cut: 3, Moves: 2, Kept: 1, Locked: 2})
	tr.EmitMove(Move{Run: 1, Node: 2, Gain: -1})
	tr.EmitFlowRound(FlowRound{Run: 1, CutBefore: 3, CutAfter: 2, Adopted: true})
	sp.End()
	tr.EmitRunEnd(RunEnd{Run: 1, Dur: time.Millisecond})

	seen := map[string]bool{}
	for i, m := range decodeLines(t, sb.String()) {
		kind, _ := m["ev"].(string)
		want, ok := Schema[kind]
		if !ok {
			t.Errorf("line %d: kind %q is not in Schema", i+1, kind)
			continue
		}
		seen[kind] = true
		for field, typ := range want {
			ok := false
			switch typ {
			case "number":
				_, ok = m[field].(float64)
			case "string":
				_, ok = m[field].(string)
			}
			if !ok {
				t.Errorf("%s event field %q = %#v, want a %s", kind, field, m[field], typ)
			}
		}
	}
	for kind := range Schema {
		if !seen[kind] {
			t.Errorf("no encoder emitted a %q event", kind)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.RunEnabled() || tr.PassEnabled() || tr.MoveEnabled() {
		t.Error("nil tracer reports enabled")
	}
	if tr.Events() != 0 || tr.Err() != nil {
		t.Error("nil tracer has state")
	}
	// Emissions on nil must be no-ops, not panics.
	tr.EmitRunStart(RunStart{})
	tr.EmitRunEnd(RunEnd{})
	tr.EmitPass(Pass{})
	tr.EmitMove(Move{})
	tr.StartPhase(0, "noop").End()
	var p *Progress
	if s := p.Snapshot(); s.Phase != "" || s.BestCut != nil {
		t.Error("nil Progress snapshot not zero")
	}
}

func TestPhaseEncoding(t *testing.T) {
	var sb strings.Builder
	tr := New(&sb, LevelRun) // phases must emit at every level
	outer := tr.StartPhase(2, "multilevel")
	inner := tr.StartPhaseLevel(2, "coarsen", 3)
	inner.End()
	sibling := tr.StartPhase(2, "initial") // must reuse depth 1 after inner ended
	sibling.End()
	outer.End()
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	lines := decodeLines(t, sb.String())
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want 6 (3 starts + 3 ends): %s", len(lines), sb.String())
	}
	type want struct {
		ev    string
		name  string
		depth float64
		level float64
	}
	wants := []want{
		{"phase_start", "multilevel", 0, 0},
		{"phase_start", "coarsen", 1, 3},
		{"phase", "coarsen", 1, 3},
		{"phase_start", "initial", 1, 0},
		{"phase", "initial", 1, 0},
		{"phase", "multilevel", 0, 0},
	}
	for i, w := range wants {
		m := lines[i]
		if m["ev"] != w.ev || m["name"] != w.name || m["depth"] != w.depth || m["level"] != w.level {
			t.Errorf("line %d = %v, want %+v", i, m, w)
		}
		if m["run"] != float64(2) {
			t.Errorf("line %d run = %v, want 2", i, m["run"])
		}
		if w.ev == "phase" {
			if _, ok := m["wall_us"]; !ok {
				t.Errorf("line %d missing wall_us: %v", i, m)
			}
		}
	}
}

// TestStartPhaseNilTracerZeroAllocs pins the disabled-path contract for
// the phase emitters, matching TestRunNilTracerZeroAllocs in
// internal/moves: a nil tracer must cost zero allocations per span.
func TestStartPhaseNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartPhaseLevel(0, "prop", 4)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-tracer phase span allocates %.1f per op, want 0", allocs)
	}
}

func TestPhaseHookAndProgress(t *testing.T) {
	var got []Phase
	prog := &Progress{}
	tr := New(io.Discard, LevelPass).
		WithPhaseHook(func(p Phase) { got = append(got, p) }).
		WithProgress(prog)

	tr.EmitRunStart(RunStart{Run: 1})
	sp := tr.StartPhaseLevel(1, "polish", 2)
	tr.EmitPass(Pass{Algo: "prop", Run: 1, Pass: 0, Cut: 60})
	tr.EmitPass(Pass{Algo: "prop", Run: 1, Pass: 1, Cut: 45})
	tr.EmitPass(Pass{Algo: "prop", Run: 1, Pass: 2, Cut: 52}) // worse: best must hold
	sp.End()

	if len(got) != 1 {
		t.Fatalf("hook calls = %d, want 1", len(got))
	}
	p := got[0]
	if p.Name != "polish" || p.Run != 1 || p.Depth != 0 || p.Level != 2 {
		t.Errorf("hook phase = %+v", p)
	}
	if p.Wall < 0 {
		t.Errorf("hook phase wall = %v", p.Wall)
	}
	s := prog.Snapshot()
	if s.Phase != "polish" || s.Run != 1 || s.Pass != 2 || s.Passes != 3 {
		t.Errorf("progress = %+v", s)
	}
	if s.BestCut == nil || *s.BestCut != 45 {
		t.Errorf("progress best cut = %v, want 45", s.BestCut)
	}
	// Snapshot must be a copy: mutating the source later must not move it.
	tr.EmitPass(Pass{Run: 1, Pass: 3, Cut: 30})
	if *s.BestCut != 45 {
		t.Error("snapshot aliased live progress")
	}
}

func TestLevelGating(t *testing.T) {
	var sb strings.Builder
	tr := New(&sb, LevelRun)
	if !tr.RunEnabled() || tr.PassEnabled() || tr.MoveEnabled() {
		t.Errorf("LevelRun gating wrong")
	}
	tr.EmitPass(Pass{Run: 0})
	tr.EmitMove(Move{Run: 0})
	if tr.Events() != 0 {
		t.Errorf("gated events were emitted: %s", sb.String())
	}
	tr = New(&sb, LevelPass)
	if !tr.PassEnabled() || tr.MoveEnabled() {
		t.Errorf("LevelPass gating wrong")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"run": LevelRun, "pass": LevelPass, "": LevelPass, "move": LevelMove} {
		got, ok := ParseLevel(s)
		if !ok || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseLevel("verbose"); ok {
		t.Error("ParseLevel accepted junk")
	}
}

// syncBuffer is an io.Writer tests can share with a concurrent tracer.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestConcurrentEmission(t *testing.T) {
	var buf syncBuffer
	tr := New(&buf, LevelMove)
	var wg sync.WaitGroup
	const workers, events = 8, 200
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < events; i++ {
				tr.EmitPass(Pass{Algo: "prop", Run: w, Pass: i, Cut: float64(i)})
			}
		}()
	}
	wg.Wait()
	lines := decodeLines(t, buf.String())
	if len(lines) != workers*events {
		t.Fatalf("lines = %d, want %d", len(lines), workers*events)
	}
	if tr.Events() != workers*events {
		t.Fatalf("events = %d", tr.Events())
	}
}

// errWriter fails after n writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestWriteErrorSticky(t *testing.T) {
	tr := New(&errWriter{n: 1}, LevelPass)
	tr.EmitPass(Pass{Run: 0})
	if tr.Err() != nil {
		t.Fatalf("unexpected early error: %v", tr.Err())
	}
	tr.EmitPass(Pass{Run: 1})
	if tr.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	tr.EmitPass(Pass{Run: 2}) // must not panic or clear the error
	if tr.Err() == nil {
		t.Fatal("error not sticky")
	}
}

func TestRunIDContext(t *testing.T) {
	ctx := context.Background()
	if RunID(ctx) != "" {
		t.Error("empty context has run ID")
	}
	ctx = WithRunID(ctx, "abc123")
	if RunID(ctx) != "abc123" {
		t.Errorf("RunID = %q", RunID(ctx))
	}
	a, b := NewID(), NewID()
	if a == b || len(a) == 0 {
		t.Errorf("NewID not unique: %q %q", a, b)
	}
}
