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
// wanted exactly when a run died mid-trace. cmd/tracecheck remains the
// strict schema validator.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
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

// MoveStats aggregates the pass events' move accounting.
type MoveStats struct {
	Passes        int     `json:"passes"`
	Moves         int64   `json:"moves"`
	Kept          int64   `json:"kept"`
	Locked        int64   `json:"locked"`
	AcceptRatePct float64 `json:"accept_rate_pct"` // kept / moves
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
}

// Read consumes a JSONL trace stream and aggregates it. It never fails on
// malformed individual lines (counted in Malformed); only a reader error
// is returned.
func Read(r io.Reader) (*RunReport, error) {
	rep := &RunReport{}
	root := &PhaseNode{}
	// Per-run span stack: the path into the shared tree plus the name the
	// matching end event must carry.
	type frame struct {
		node *PhaseNode
		name string
	}
	stacks := make(map[int][]frame)
	runs := make(map[int]struct{})

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

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e event
		if err := json.Unmarshal(line, &e); err != nil {
			rep.Malformed++
			continue
		}
		rep.Events++
		if first || e.TS < firstTS {
			firstTS, first = e.TS, false
		}
		if e.TS > lastTS {
			lastTS = e.TS
		}
		runs[e.Run] = struct{}{}

		switch e.Ev {
		case "run_end":
			rep.RunWallUS += e.DurUS
		case "phase_start":
			parent := root
			if st := stacks[e.Run]; len(st) > 0 {
				parent = st[len(st)-1].node
			}
			stacks[e.Run] = append(stacks[e.Run], frame{parent.child(e.Name), e.Name})
		case "phase":
			st := stacks[e.Run]
			if len(st) == 0 || st[len(st)-1].name != e.Name {
				rep.Malformed++
				continue
			}
			n := st[len(st)-1].node
			stacks[e.Run] = st[:len(st)-1]
			n.Count++
			n.WallUS += e.WallUS
		case "pass":
			rep.Moves.Passes++
			rep.Moves.Moves += e.Moves
			rep.Moves.Kept += e.Kept
			rep.Moves.Locked += e.Locked
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

	// Unclosed spans at EOF (crashed or truncated run) are malformed.
	for _, st := range stacks {
		rep.Malformed += len(st)
	}
	rep.Runs = len(runs)
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
