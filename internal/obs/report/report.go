// Package report aggregates an obs JSONL trace stream into a structured
// RunReport: the hierarchical per-phase wall-time tree built from
// phase_start/phase span pairs, the pass convergence curve (cut versus
// pass index — the observable form of the paper's 2–4-pass convergence
// claim), move accept/lock rates, and the flow polisher's adoption rate.
// The report has a JSON form (WriteJSON) for machines and an aligned-text
// form (WriteText) for terminals.
//
// Read is tolerant of truncated or mildly malformed streams — it counts
// anomalies in Malformed instead of failing — because reports are often
// wanted exactly when a run died mid-trace. It is also the trace schema's
// validator: it checks every line against obs.Schema and the per-run
// ordering and span-nesting rules while it aggregates, and keeps the
// first violation in Violation.
package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"prop/internal/obs"
)

// event is the union of every trace event's fields; kind-specific fields
// are zero for other kinds.
type event struct {
	TS  int64  `json:"ts_us"`
	Ev  string `json:"ev"`
	Run int    `json:"run"`

	// phase_start / phase
	Name   string `json:"name"`
	Depth  int    `json:"depth"`
	Level  int    `json:"level"`
	WallUS int64  `json:"wall_us"`

	// pass / move
	Pass   int     `json:"pass"`
	Cut    float64 `json:"cut"`
	Moves  int64   `json:"moves"`
	Kept   int64   `json:"kept"`
	Locked int64   `json:"locked"`

	// pass (PROP's refresh effort)
	Refreshes  int64 `json:"refreshes"`
	GainEvals  int64 `json:"gain_evals"`
	StampSkips int64 `json:"stamp_skips"`
	GainNets   int64 `json:"gain_nets"`
	GainTerms  int64 `json:"gain_terms"`
	// pass (selection effort)
	FeasChecks int64 `json:"feas_checks"`

	// flow
	Adopted   int     `json:"adopted"`
	CutBefore float64 `json:"cut_before"`
	CutAfter  float64 `json:"cut_after"`

	// run_end / pass / flow
	DurUS int64 `json:"dur_us"`
}

// PhaseNode is one node of the per-phase wall-time tree, aggregated over
// every span with the same name path (across runs and level ordinals):
// Count spans summing WallUS wall time.
type PhaseNode struct {
	Name     string       `json:"name"`
	Count    int          `json:"count"`
	WallUS   int64        `json:"wall_us"`
	Children []*PhaseNode `json:"children,omitempty"`
}

func (n *PhaseNode) child(name string) *PhaseNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	c := &PhaseNode{Name: name}
	n.Children = append(n.Children, c)
	return c
}

// sortTree orders every sibling list by wall time, heaviest first.
func sortTree(n *PhaseNode) {
	sort.SliceStable(n.Children, func(i, j int) bool {
		return n.Children[i].WallUS > n.Children[j].WallUS
	})
	for _, c := range n.Children {
		sortTree(c)
	}
}

// PassPoint is one column of the convergence curve: the cuts reported by
// pass events with this pass index, over however many runs reached it.
type PassPoint struct {
	Pass    int     `json:"pass"`
	Runs    int     `json:"runs"`
	BestCut float64 `json:"best_cut"`
	MeanCut float64 `json:"mean_cut"`
	// BestSoFar is the minimum cut over every pass event with index ≤
	// Pass — non-increasing by construction, the monotone form of "the
	// portfolio never gets worse as passes accumulate".
	BestSoFar float64 `json:"best_so_far"`
}

// MoveStats aggregates the pass events' move accounting and PROP's gain
// effort: refreshes requested after moves, gain evaluations (refine sweeps
// plus refreshes computed), refreshes the change stamps skipped, the nets
// the evaluations walked and the per-net terms they recomputed (fewer
// than the nets only where the term cache serves). FeasChecks counts the
// balance checks the best-first selections of PROP, FM and LA made; near
// one per move, selection stops at each side's first entries.
type MoveStats struct {
	Passes        int     `json:"passes"`
	Moves         int64   `json:"moves"`
	Kept          int64   `json:"kept"`
	Locked        int64   `json:"locked"`
	AcceptRatePct float64 `json:"accept_rate_pct"` // kept / moves
	Refreshes     int64   `json:"refreshes,omitempty"`
	GainEvals     int64   `json:"gain_evals,omitempty"`
	StampSkips    int64   `json:"stamp_skips,omitempty"`
	SkipRatePct   float64 `json:"skip_rate_pct,omitempty"` // stamp_skips / refreshes
	GainNets      int64   `json:"gain_nets,omitempty"`
	GainTerms     int64   `json:"gain_terms,omitempty"`
	FeasChecks    int64   `json:"feas_checks,omitempty"`
	FeasPerMove   float64 `json:"feas_per_move,omitempty"` // feas_checks / moves
}

// FlowStats aggregates the flow polisher's round events.
type FlowStats struct {
	Rounds          int     `json:"rounds"`
	Adopted         int     `json:"adopted"`
	AdoptionRatePct float64 `json:"adoption_rate_pct"`
	// CutImprovement sums cut_before − cut_after over adopted rounds.
	CutImprovement float64 `json:"cut_improvement"`
}

// RunReport is the aggregate of one trace stream.
type RunReport struct {
	Events int `json:"events"`
	Runs   int `json:"runs"`
	// RunWallUS sums run_end durations — the denominator of
	// PhaseCoveragePct. When a trace has no run spans (engine-internal
	// traces), SpanUS (last − first timestamp) substitutes.
	RunWallUS int64 `json:"run_wall_us"`
	SpanUS    int64 `json:"span_us"`

	Phases           []*PhaseNode `json:"phases,omitempty"`
	PhaseCoveragePct float64      `json:"phase_coverage_pct"`

	Convergence  []PassPoint `json:"convergence,omitempty"`
	FinalBestCut float64     `json:"final_best_cut,omitempty"`

	Moves MoveStats  `json:"moves"`
	Flow  *FlowStats `json:"flow,omitempty"`

	DeltaApplies int `json:"delta_applies,omitempty"`
	// Malformed counts events that could not be folded in (unparseable
	// lines, phase ends with no matching start, name mismatches).
	Malformed int `json:"malformed,omitempty"`
	// Violation is the first place the stream breaks the trace schema,
	// as "line N: ..." or "end of trace after line N: ...", and empty for
	// a valid trace.
	Violation string `json:"violation,omitempty"`
}

// Read consumes a JSONL trace stream and aggregates it. It never fails on
// malformed individual lines (counted in Malformed); only a reader error
// is returned. It also checks the stream against the trace schema — each
// line against obs.Schema, then per-run timestamp order, phase nesting
// and run balance — and records the first violation in Violation.
func Read(r io.Reader) (*RunReport, error) {
	rep := &RunReport{}
	violate := func(format string, args ...any) {
		if rep.Violation == "" {
			rep.Violation = fmt.Sprintf(format, args...)
		}
	}
	root := &PhaseNode{}
	// Per-run span stack: the path into the shared tree plus the name the
	// matching end event must carry. Until the first violation a frame's
	// index in the stack is its span's depth.
	type frame struct {
		node *PhaseNode
		name string
	}
	stacks := make(map[int][]frame)
	runTS := make(map[int]int64) // last ts_us per run: the runs seen, and the order check
	starts, ends := 0, 0

	type passAgg struct {
		runs int
		best float64
		sum  float64
	}
	passes := make(map[int]*passAgg)
	bestSoFar := 0.0
	hasCut := false

	var firstTS, lastTS int64
	first := true

	lineNo := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if rep.Violation == "" {
			if msg := checkLine(line); msg != "" {
				violate("line %d: %s", lineNo, msg)
			}
		}
		if len(line) == 0 {
			continue
		}
		var e event
		if err := json.Unmarshal(line, &e); err != nil {
			rep.Malformed++
			violate("line %d: unreadable event: %v", lineNo, err)
			continue
		}
		rep.Events++
		if first || e.TS < firstTS {
			firstTS, first = e.TS, false
		}
		if e.TS > lastTS {
			lastTS = e.TS
		}
		// Runs of a parallel portfolio interleave, so timestamps are
		// ordered per run, not globally.
		if e.TS < 0 {
			violate("line %d: negative ts_us %d", lineNo, e.TS)
		}
		if prev, seen := runTS[e.Run]; seen && e.TS < prev {
			violate("line %d: run %d ts_us %d went backwards (prev %d)", lineNo, e.Run, e.TS, prev)
		}
		runTS[e.Run] = e.TS

		switch e.Ev {
		case "run_start":
			starts++
		case "run_end":
			ends++
			rep.RunWallUS += e.DurUS
		case "phase_start":
			st := stacks[e.Run]
			if e.Depth != len(st) {
				violate("line %d: run %d phase_start %q depth %d, want %d open spans",
					lineNo, e.Run, e.Name, e.Depth, len(st))
			}
			parent := root
			if len(st) > 0 {
				parent = st[len(st)-1].node
			}
			stacks[e.Run] = append(st, frame{parent.child(e.Name), e.Name})
		case "phase":
			st := stacks[e.Run]
			top := len(st) - 1 // the innermost open span, at depth top
			if top < 0 {
				violate("line %d: run %d phase %q ends with no open span", lineNo, e.Run, e.Name)
			} else if st[top].name != e.Name || e.Depth != top {
				violate("line %d: run %d phase %q/depth %d ends, but %q/depth %d is open",
					lineNo, e.Run, e.Name, e.Depth, st[top].name, top)
			}
			if top < 0 || st[top].name != e.Name {
				rep.Malformed++
				continue
			}
			node := st[top].node
			stacks[e.Run] = st[:top]
			node.Count++
			node.WallUS += e.WallUS
		case "pass":
			rep.Moves.Passes++
			rep.Moves.Moves += e.Moves
			rep.Moves.Kept += e.Kept
			rep.Moves.Locked += e.Locked
			rep.Moves.Refreshes += e.Refreshes
			rep.Moves.GainEvals += e.GainEvals
			rep.Moves.StampSkips += e.StampSkips
			rep.Moves.GainNets += e.GainNets
			rep.Moves.GainTerms += e.GainTerms
			rep.Moves.FeasChecks += e.FeasChecks
			pa := passes[e.Pass]
			if pa == nil {
				pa = &passAgg{best: e.Cut}
				passes[e.Pass] = pa
			}
			pa.runs++
			pa.sum += e.Cut
			if e.Cut < pa.best {
				pa.best = e.Cut
			}
			if !hasCut || e.Cut < bestSoFar {
				bestSoFar, hasCut = e.Cut, true
			}
		case "flow":
			if rep.Flow == nil {
				rep.Flow = &FlowStats{}
			}
			rep.Flow.Rounds++
			if e.Adopted != 0 {
				rep.Flow.Adopted++
				rep.Flow.CutImprovement += e.CutBefore - e.CutAfter
			}
		case "delta_apply":
			rep.DeltaApplies++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}

	if lineNo == 0 {
		violate("end of trace after line 0: no events")
	}
	if starts != ends {
		violate("end of trace after line %d: unbalanced run spans: %d run_start, %d run_end", lineNo, starts, ends)
	}
	// Unclosed spans at EOF (crashed or truncated run) are malformed. The
	// violation names the lowest such run, so it reads the same every time.
	openRun, open := 0, false
	for run, st := range stacks {
		rep.Malformed += len(st)
		if len(st) > 0 && (!open || run < openRun) {
			openRun, open = run, true
		}
	}
	if open {
		st := stacks[openRun]
		violate("end of trace after line %d: run %d ends with %d unclosed phase span(s), first %q",
			lineNo, openRun, len(st), st[0].name)
	}
	rep.Runs = len(runTS)
	rep.SpanUS = lastTS - firstTS

	sortTree(root)
	rep.Phases = root.Children
	var topWall int64
	for _, n := range rep.Phases {
		topWall += n.WallUS
	}
	if denom := rep.RunWallUS; denom > 0 {
		rep.PhaseCoveragePct = 100 * float64(topWall) / float64(denom)
	} else if rep.SpanUS > 0 {
		rep.PhaseCoveragePct = 100 * float64(topWall) / float64(rep.SpanUS)
	}

	if rep.Moves.Moves > 0 {
		rep.Moves.AcceptRatePct = 100 * float64(rep.Moves.Kept) / float64(rep.Moves.Moves)
	}
	if rep.Moves.Refreshes > 0 {
		rep.Moves.SkipRatePct = 100 * float64(rep.Moves.StampSkips) / float64(rep.Moves.Refreshes)
	}
	if rep.Moves.Moves > 0 {
		rep.Moves.FeasPerMove = float64(rep.Moves.FeasChecks) / float64(rep.Moves.Moves)
	}
	if f := rep.Flow; f != nil && f.Rounds > 0 {
		f.AdoptionRatePct = 100 * float64(f.Adopted) / float64(f.Rounds)
	}

	if hasCut {
		rep.FinalBestCut = bestSoFar
	}
	idxs := make([]int, 0, len(passes))
	for p := range passes {
		idxs = append(idxs, p)
	}
	sort.Ints(idxs)
	running := 0.0
	for i, p := range idxs {
		pa := passes[p]
		if i == 0 || pa.best < running {
			running = pa.best
		}
		rep.Convergence = append(rep.Convergence, PassPoint{
			Pass:      p,
			Runs:      pa.runs,
			BestCut:   pa.best,
			MeanCut:   pa.sum / float64(pa.runs),
			BestSoFar: running,
		})
	}
	return rep, nil
}

// checkLine checks one line against obs.Schema: a JSON object whose ev
// is a known kind, carrying every field the kind requires with its JSON
// type. It returns what is wrong, or "" for a valid line.
func checkLine(line []byte) string {
	if len(bytes.TrimSpace(line)) == 0 {
		return "empty line"
	}
	var ev map[string]any
	if err := json.Unmarshal(line, &ev); err != nil {
		return fmt.Sprintf("invalid JSON: %v", err)
	}
	kind, _ := ev["ev"].(string)
	want, ok := obs.Schema[kind]
	if !ok {
		return fmt.Sprintf("unknown event kind %q", kind)
	}
	for field, typ := range want {
		v, present := ev[field]
		if !present {
			return fmt.Sprintf("%s event missing field %q", kind, field)
		}
		if got := jsonType(v); got != typ {
			return fmt.Sprintf("%s event field %q is %s, want %s", kind, field, got, typ)
		}
	}
	return ""
}

// jsonType names the JSON type of a value decoded by encoding/json.
func jsonType(v any) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	}
	return "object"
}

// WriteJSON renders the report as indented JSON.
func WriteJSON(w io.Writer, rep *RunReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ms renders microseconds as fixed-point milliseconds.
func ms(us int64) string { return fmt.Sprintf("%.1fms", float64(us)/1000) }

// WriteText renders the aligned terminal report: header, phase tree,
// flattened top-N phase table, convergence curve, and the move/flow rate
// lines. topN ≤ 0 disables the flattened table.
func WriteText(w io.Writer, rep *RunReport, topN int) error {
	bw := bufio.NewWriter(w)
	denom := rep.RunWallUS
	if denom == 0 {
		denom = rep.SpanUS
	}
	fmt.Fprintf(bw, "events %d   runs %d   run wall %s   phase coverage %.1f%%\n",
		rep.Events, rep.Runs, ms(denom), rep.PhaseCoveragePct)
	if rep.Malformed > 0 {
		fmt.Fprintf(bw, "WARNING: %d malformed/unclosed events\n", rep.Malformed)
	}
	if rep.Violation != "" {
		fmt.Fprintf(bw, "WARNING: invalid trace: %s\n", rep.Violation)
	}

	if len(rep.Phases) > 0 {
		fmt.Fprintf(bw, "\nphases:\n")
		var width func(n *PhaseNode, indent int) int
		width = func(n *PhaseNode, indent int) int {
			wd := indent + len(n.Name)
			for _, c := range n.Children {
				if cw := width(c, indent+2); cw > wd {
					wd = cw
				}
			}
			return wd
		}
		nameW := 0
		for _, n := range rep.Phases {
			if wd := width(n, 2); wd > nameW {
				nameW = wd
			}
		}
		var walk func(n *PhaseNode, indent int)
		walk = func(n *PhaseNode, indent int) {
			pct := 0.0
			if denom > 0 {
				pct = 100 * float64(n.WallUS) / float64(denom)
			}
			fmt.Fprintf(bw, "%*s%-*s %5dx %12s %6.1f%%\n",
				indent, "", nameW-indent, n.Name, n.Count, ms(n.WallUS), pct)
			for _, c := range n.Children {
				walk(c, indent+2)
			}
		}
		for _, n := range rep.Phases {
			walk(n, 2)
		}
	}

	if topN > 0 && len(rep.Phases) > 0 {
		flat := Flatten(rep)
		paths := make([]string, 0, len(flat))
		for p := range flat {
			paths = append(paths, p)
		}
		sort.Slice(paths, func(i, j int) bool {
			a, b := flat[paths[i]], flat[paths[j]]
			if a.WallUS != b.WallUS {
				return a.WallUS > b.WallUS
			}
			return paths[i] < paths[j]
		})
		if len(paths) > topN {
			paths = paths[:topN]
		}
		fmt.Fprintf(bw, "\ntop %d phases by wall time:\n", len(paths))
		for i, p := range paths {
			fmt.Fprintf(bw, "  %2d. %-40s %12s %5dx\n", i+1, p, ms(flat[p].WallUS), flat[p].Count)
		}
	}

	if len(rep.Convergence) > 0 {
		fmt.Fprintf(bw, "\nconvergence (cut vs pass index):\n")
		fmt.Fprintf(bw, "  %4s %5s %10s %10s %12s\n", "pass", "runs", "best", "mean", "best-so-far")
		for _, p := range rep.Convergence {
			fmt.Fprintf(bw, "  %4d %5d %10g %10.1f %12g\n", p.Pass, p.Runs, p.BestCut, p.MeanCut, p.BestSoFar)
		}
	}

	if rep.Moves.Passes > 0 {
		fmt.Fprintf(bw, "\nmoves: %d passes, %d proposed, %d kept (%.1f%% accept), %d locked\n",
			rep.Moves.Passes, rep.Moves.Moves, rep.Moves.Kept, rep.Moves.AcceptRatePct, rep.Moves.Locked)
		if m := rep.Moves; m.Refreshes > 0 || m.FeasChecks > 0 {
			sep := " "
			fmt.Fprint(bw, "gain effort:")
			if m.Refreshes > 0 {
				fmt.Fprintf(bw, " %d evaluations, %d refreshes, %d skipped by change stamps (%.1f%%)",
					m.GainEvals, m.Refreshes, m.StampSkips, m.SkipRatePct)
				if m.GainNets > 0 {
					fmt.Fprintf(bw, "; %d nets walked, %d terms recomputed", m.GainNets, m.GainTerms)
				}
				sep = "; "
			}
			if m.FeasChecks > 0 {
				fmt.Fprintf(bw, "%s%d feasibility checks (%.2f per move)", sep, m.FeasChecks, m.FeasPerMove)
			}
			fmt.Fprintln(bw)
		}
	}
	if f := rep.Flow; f != nil {
		fmt.Fprintf(bw, "flow: %d rounds, %d adopted (%.1f%%), cut improvement %g\n",
			f.Rounds, f.Adopted, f.AdoptionRatePct, f.CutImprovement)
	}
	if rep.DeltaApplies > 0 {
		fmt.Fprintf(bw, "delta applies: %d\n", rep.DeltaApplies)
	}
	return bw.Flush()
}

// Flatten maps every phase-tree node to its slash-joined name path
// ("multilevel/uncoarsen/prop"), for the top-N table.
func Flatten(rep *RunReport) map[string]*PhaseNode {
	out := make(map[string]*PhaseNode)
	var walk func(prefix string, n *PhaseNode)
	walk = func(prefix string, n *PhaseNode) {
		path := n.Name
		if prefix != "" {
			path = prefix + "/" + n.Name
		}
		out[path] = n
		for _, c := range n.Children {
			walk(path, c)
		}
	}
	for _, n := range rep.Phases {
		walk("", n)
	}
	return out
}
