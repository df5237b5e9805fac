// Package obs is the telemetry subsystem shared by the partitioning
// engines and the serving layer: a low-overhead structured trace recorder
// (JSONL span/event stream with monotonic timestamps at run/pass/move
// granularity) plus small helpers for request-ID generation and context
// propagation used by the slog-based request logging in propserve.
//
// The recorder is observation-only by construction: emitters read engine
// state but never write it, so a run traced at any level produces
// bit-identical partitions to an untraced run. A nil *Tracer is the
// disabled state and every emission site guards with the nil-safe
// PassEnabled/MoveEnabled/RunEnabled predicates, so the disabled hot path
// is a single predicated branch — no closures, no allocations
// (TestRunNilTracerZeroAllocs in internal/moves and
// TestStartPhaseNilTracerZeroAllocs here pin this).
//
// # Trace schema
//
// One JSON object per line. Every event carries:
//
//	ts_us   int     microseconds since the tracer was created (monotonic)
//	ev      string  event kind: run_start | run_end | pass | move |
//	                flow | delta_apply | phase_start | phase
//	run     int     0-based multi-start run index
//
// Kind-specific fields:
//
//	run_start    id?
//	run_end      id?, dur_us, err?
//	pass         algo, id?, pass, cut, gmax, moves, kept, locked,
//	             dirty_nets, swept, refine_iters, sweep_wall_us,
//	             refreshes, gain_evals, stamp_skips, dur_us
//	move         pass, node, gain
//	flow         id?, round, boundary, corridor, nets, flow,
//	             cut_before, cut_after, adopted (0/1), dur_us
//	delta_apply  id?, structural (0/1), nodes, nets, collapsed, dur_us
//	phase_start  name, depth, level
//	phase        name, depth, level, wall_us
//
// flow is one corridor max-flow round of the flow-based boundary
// refinement stage (internal/flow) — the flow analogue of a pass event,
// emitted at LevelPass.
//
// delta_apply spans the application of a netlist delta (incremental
// repartitioning); its run field is always 0 — delta application happens
// before the multi-start portfolio.
//
// phase_start / phase are the paired events of one hierarchical phase
// span (StartPhase/End): multilevel coarsen/initial/refine levels, warm
// polish rounds, flow stages, and the refine dispatch itself. depth is
// the 0-based nesting depth within the run, tracked per run index by the
// tracer, so a validator can replay each run's spans against a stack and
// reject unbalanced nesting. level is a phase-local ordinal (coarsen
// level, polish round). Like delta_apply, phase events are emitted at
// every trace level — phases are rare and load-bearing. Per-run depth
// tracking assumes at most one goroutine emits phases for a given run
// index at a time, which holds for every engine path: parallel
// portfolios give each run a distinct index.
//
// Fields marked ? are omitted when empty. Schema is the machine-readable
// form of the required fields; internal/obs/report checks every line it
// reads against it, and against the per-run ordering and nesting rules
// above.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Schema lists the required fields per event kind and the JSON type (as
// decoded by encoding/json) each must carry. Adding an event kind means
// one entry here next to its encoder; TestEncodersMatchSchema emits every
// kind and checks it against this table.
var Schema = map[string]map[string]string{
	"run_start": {"ts_us": "number", "ev": "string", "run": "number"},
	"run_end":   {"ts_us": "number", "ev": "string", "run": "number", "dur_us": "number"},
	"pass": {
		"ts_us": "number", "ev": "string", "run": "number", "algo": "string",
		"pass": "number", "cut": "number", "gmax": "number",
		"moves": "number", "kept": "number", "locked": "number", "dur_us": "number",
	},
	"move": {
		"ts_us": "number", "ev": "string", "run": "number",
		"pass": "number", "node": "number", "gain": "number",
	},
	"flow": {
		"ts_us": "number", "ev": "string", "run": "number",
		"round": "number", "boundary": "number", "corridor": "number",
		"nets": "number", "flow": "number", "cut_before": "number",
		"cut_after": "number", "adopted": "number", "dur_us": "number",
	},
	"delta_apply": {
		"ts_us": "number", "ev": "string", "run": "number",
		"structural": "number", "nodes": "number", "nets": "number",
		"collapsed": "number", "dur_us": "number",
	},
	"phase_start": {
		"ts_us": "number", "ev": "string", "run": "number",
		"name": "string", "depth": "number", "level": "number",
	},
	"phase": {
		"ts_us": "number", "ev": "string", "run": "number",
		"name": "string", "depth": "number", "level": "number",
		"wall_us": "number",
	},
}

// Level selects trace granularity. Each level includes the ones below it.
type Level int32

const (
	// LevelRun records only run_start/run_end span events.
	LevelRun Level = iota
	// LevelPass additionally records one event per improvement pass — the
	// convergence trajectory. This is the default working level.
	LevelPass
	// LevelMove additionally records every virtual move (large!).
	LevelMove
)

// ParseLevel maps the CLI spellings ("run", "pass", "move") to a Level.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "run":
		return LevelRun, true
	case "pass", "":
		return LevelPass, true
	case "move":
		return LevelMove, true
	}
	return LevelPass, false
}

// Tracer records structured events as JSONL. Safe for concurrent use:
// lines are assembled and written under one mutex, so events from
// parallel runs interleave whole-line. The zero of *Tracer (nil) is the
// disabled recorder.
type Tracer struct {
	level Level
	epoch time.Time
	hook  func(Phase) // invoked after each phase end, outside t.mu
	prog  *Progress   // live snapshot sink, optional

	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	err    error
	depths map[int]int // current phase nesting depth per run index

	events atomic.Int64
}

// New returns a Tracer writing JSONL events to w at the given level. The
// caller owns w's lifetime (and any buffering around it); the tracer
// writes one complete line per event.
func New(w io.Writer, level Level) *Tracer {
	if level < LevelRun {
		level = LevelRun
	}
	if level > LevelMove {
		level = LevelMove
	}
	return &Tracer{
		level:  level,
		epoch:  time.Now(),
		w:      w,
		buf:    make([]byte, 0, 256),
		depths: make(map[int]int),
	}
}

// WithPhaseHook installs fn, called once per completed phase span after
// the event is recorded (outside the tracer lock). Used by the serving
// layer to feed per-phase duration histograms. Must be called before the
// tracer is shared.
func (t *Tracer) WithPhaseHook(fn func(Phase)) *Tracer {
	t.hook = fn
	return t
}

// WithProgress attaches a live-progress sink updated on run starts, pass
// events and phase boundaries. Must be called before the tracer is
// shared.
func (t *Tracer) WithProgress(p *Progress) *Tracer {
	t.prog = p
	return t
}

// RunEnabled reports whether run span events should be emitted. Nil-safe.
func (t *Tracer) RunEnabled() bool { return t != nil }

// PassEnabled reports whether per-pass events should be emitted. Nil-safe.
func (t *Tracer) PassEnabled() bool { return t != nil && t.level >= LevelPass }

// MoveEnabled reports whether per-move events should be emitted. Nil-safe.
func (t *Tracer) MoveEnabled() bool { return t != nil && t.level >= LevelMove }

// Events returns the number of events emitted so far. Nil-safe.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	return t.events.Load()
}

// Err returns the first write error encountered, if any. Nil-safe.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// RunStart is the opening span event of one multi-start run.
type RunStart struct {
	ID  string // request/job label, optional
	Run int
}

// RunEnd closes a run span.
type RunEnd struct {
	ID  string
	Run int
	Dur time.Duration
	Err string // non-empty when the run failed
}

// Pass is one improvement-pass event — the unit of the paper's
// convergence claims. Core fills every field; simpler engines (FM) leave
// the refinement fields zero.
type Pass struct {
	Algo string // "prop", "fm", ...
	ID   string
	Run  int
	Pass int // 0-based pass index within the run

	Cut  float64 // cut cost after the pass (post-rollback)
	Gmax float64 // realized maximum prefix gain of the pass

	Moves  int // virtual moves made during the pass
	Kept   int // moves kept after maximum-prefix rollback
	Locked int // nodes locked when selection stopped

	DirtyNets   int // cumulative dirty-net rebuilds across refine iterations
	SweptNodes  int // gain recomputations across refine sweeps
	RefineIters int // refine iterations actually executed

	SweepWall time.Duration // wall-clock time of the refinement gain sweeps

	Refreshes  int // in-pass gain refreshes requested after moves
	GainEvals  int // gain evaluations: refine sweeps plus refreshes not skipped
	StampSkips int // refreshes skipped because none of the node's nets changed

	Dur time.Duration // wall-clock time of the whole pass
}

// Move is one virtual move (LevelMove only).
type Move struct {
	Run  int
	Pass int
	Node int
	Gain float64 // immediate (deterministic) gain realized by the move
}

// FlowRound is one corridor max-flow round of the flow-based refinement
// stage: corridor extraction, Lawler expansion, Dinic max flow, and the
// adoption decision (LevelPass).
type FlowRound struct {
	ID    string
	Run   int
	Round int // 0-based round index within one refine call

	Boundary int // nodes on cut nets seeding the corridor BFS
	Corridor int // corridor nodes extracted
	Nets     int // hyperedges modeled in the Lawler network

	FlowValue float64 // Dinic max-flow value, in net-cost units
	CutBefore float64 // total cut cost entering the round
	CutAfter  float64 // total cut cost after the adoption decision
	Adopted   bool    // whether the flow cut was strictly better and kept

	Dur time.Duration
}

// EmitFlowRound records a flow event. Callers should guard with
// PassEnabled; EmitFlowRound itself is also nil-safe.
func (t *Tracer) EmitFlowRound(e FlowRound) {
	if t == nil || t.level < LevelPass {
		return
	}
	t.mu.Lock()
	b := t.open("flow", e.Run)
	b = appendStr(b, "id", e.ID)
	b = appendInt(b, "round", int64(e.Round))
	b = appendInt(b, "boundary", int64(e.Boundary))
	b = appendInt(b, "corridor", int64(e.Corridor))
	b = appendInt(b, "nets", int64(e.Nets))
	b = appendFloat(b, "flow", e.FlowValue)
	b = appendFloat(b, "cut_before", e.CutBefore)
	b = appendFloat(b, "cut_after", e.CutAfter)
	adopted := int64(0)
	if e.Adopted {
		adopted = 1
	}
	b = appendInt(b, "adopted", adopted)
	b = appendInt(b, "dur_us", e.Dur.Microseconds())
	t.close(b)
	t.mu.Unlock()
}

// DeltaApply spans one netlist-delta application — the construction step
// of incremental repartitioning, before any partitioning run.
type DeltaApply struct {
	ID         string
	Structural bool
	// Nodes and Nets size the produced hypergraph; Collapsed counts base
	// nets dropped because node removal left them under two pins.
	Nodes, Nets, Collapsed int
	Dur                    time.Duration
}

// EmitDeltaApply records a delta_apply event. Nil-safe no-op when
// disabled; emitted at every level (delta application is rarer and more
// load-bearing than run spans).
func (t *Tracer) EmitDeltaApply(e DeltaApply) {
	if t == nil {
		return
	}
	t.mu.Lock()
	b := t.open("delta_apply", 0)
	b = appendStr(b, "id", e.ID)
	structural := int64(0)
	if e.Structural {
		structural = 1
	}
	b = appendInt(b, "structural", structural)
	b = appendInt(b, "nodes", int64(e.Nodes))
	b = appendInt(b, "nets", int64(e.Nets))
	b = appendInt(b, "collapsed", int64(e.Collapsed))
	b = appendInt(b, "dur_us", e.Dur.Microseconds())
	t.close(b)
	t.mu.Unlock()
}

// EmitRunStart records a run_start event. Nil-safe no-op when disabled.
func (t *Tracer) EmitRunStart(e RunStart) {
	if t == nil {
		return
	}
	t.mu.Lock()
	b := t.open("run_start", e.Run)
	b = appendStr(b, "id", e.ID)
	t.close(b)
	t.mu.Unlock()
	if t.prog != nil {
		t.prog.setRun(e.Run)
	}
}

// EmitRunEnd records a run_end event. Nil-safe no-op when disabled.
func (t *Tracer) EmitRunEnd(e RunEnd) {
	if t == nil {
		return
	}
	t.mu.Lock()
	b := t.open("run_end", e.Run)
	b = appendStr(b, "id", e.ID)
	b = appendInt(b, "dur_us", e.Dur.Microseconds())
	b = appendStr(b, "err", e.Err)
	t.close(b)
	t.mu.Unlock()
}

// EmitPass records a pass event. Callers should guard with PassEnabled;
// EmitPass itself is also nil-safe.
func (t *Tracer) EmitPass(e Pass) {
	if t == nil || t.level < LevelPass {
		return
	}
	t.mu.Lock()
	b := t.open("pass", e.Run)
	b = appendStr(b, "algo", e.Algo)
	b = appendStr(b, "id", e.ID)
	b = appendInt(b, "pass", int64(e.Pass))
	b = appendFloat(b, "cut", e.Cut)
	b = appendFloat(b, "gmax", e.Gmax)
	b = appendInt(b, "moves", int64(e.Moves))
	b = appendInt(b, "kept", int64(e.Kept))
	b = appendInt(b, "locked", int64(e.Locked))
	b = appendInt(b, "dirty_nets", int64(e.DirtyNets))
	b = appendInt(b, "swept", int64(e.SweptNodes))
	b = appendInt(b, "refine_iters", int64(e.RefineIters))
	b = appendInt(b, "sweep_wall_us", e.SweepWall.Microseconds())
	b = appendInt(b, "refreshes", int64(e.Refreshes))
	b = appendInt(b, "gain_evals", int64(e.GainEvals))
	b = appendInt(b, "stamp_skips", int64(e.StampSkips))
	b = appendInt(b, "dur_us", e.Dur.Microseconds())
	t.close(b)
	t.mu.Unlock()
	if t.prog != nil {
		t.prog.observePass(e.Run, e.Pass, e.Cut)
	}
}

// EmitMove records a move event. Callers should guard with MoveEnabled;
// EmitMove itself is also nil-safe.
func (t *Tracer) EmitMove(e Move) {
	if t == nil || t.level < LevelMove {
		return
	}
	t.mu.Lock()
	b := t.open("move", e.Run)
	b = appendInt(b, "pass", int64(e.Pass))
	b = appendInt(b, "node", int64(e.Node))
	b = appendFloat(b, "gain", e.Gain)
	t.close(b)
	t.mu.Unlock()
}

// Phase is one completed hierarchical phase span: a named stage of the
// partitioning pipeline (multilevel level, warm polish round, flow stage,
// refine dispatch) with its nesting depth and wall time.
type Phase struct {
	Run   int
	Name  string
	Depth int // 0-based nesting depth within the run
	Level int // phase-local ordinal: coarsen level, polish round, ...

	Wall time.Duration
}

// PhaseSpan is an open phase started by StartPhase. The zero value (from
// a nil tracer) is inert: End is a no-op and costs no allocation.
type PhaseSpan struct {
	t     *Tracer
	start time.Time
	name  string
	run   int
	depth int
	level int
}

// StartPhase opens a phase span for run. It records a phase_start event
// and returns a span whose End records the matching phase event. Nil-safe:
// a nil tracer returns the zero span without allocating.
func (t *Tracer) StartPhase(run int, name string) PhaseSpan {
	return t.StartPhaseLevel(run, name, 0)
}

// StartPhaseLevel is StartPhase with an explicit phase-local ordinal
// (coarsen level, polish round index).
func (t *Tracer) StartPhaseLevel(run int, name string, level int) PhaseSpan {
	if t == nil {
		return PhaseSpan{}
	}
	t.mu.Lock()
	depth := t.depths[run]
	t.depths[run] = depth + 1
	b := t.open("phase_start", run)
	b = appendStr(b, "name", name)
	b = appendInt(b, "depth", int64(depth))
	b = appendInt(b, "level", int64(level))
	t.close(b)
	t.mu.Unlock()
	if t.prog != nil {
		t.prog.setPhase(run, name)
	}
	return PhaseSpan{t: t, start: time.Now(), name: name, run: run, depth: depth, level: level}
}

// End closes the span. No-op on the zero span.
func (s PhaseSpan) End() {
	t := s.t
	if t == nil {
		return
	}
	e := Phase{
		Run:   s.run,
		Name:  s.name,
		Depth: s.depth,
		Level: s.level,
		Wall:  time.Since(s.start),
	}
	t.mu.Lock()
	// Restore the pre-span depth so sibling spans reuse it. Out-of-order
	// Ends would misreport depth, not corrupt the tracer.
	t.depths[s.run] = s.depth
	b := t.open("phase", s.run)
	b = appendStr(b, "name", s.name)
	b = appendInt(b, "depth", int64(s.depth))
	b = appendInt(b, "level", int64(s.level))
	b = appendInt(b, "wall_us", e.Wall.Microseconds())
	t.close(b)
	t.mu.Unlock()
	if t.hook != nil {
		t.hook(e)
	}
}

// Progress is a thread-safe live snapshot of a traced run: the most
// recently started phase, the latest pass index and the best cut seen so
// far. Attach with WithProgress; read with Snapshot. The serving layer
// publishes this for in-flight jobs.
type Progress struct {
	mu      sync.Mutex
	phase   string
	run     int
	pass    int
	passes  int
	bestCut float64
	hasCut  bool
}

// ProgressSnapshot is the JSON form of a Progress read.
type ProgressSnapshot struct {
	Phase   string   `json:"phase,omitempty"`
	Run     int      `json:"run"`
	Pass    int      `json:"pass"`
	Passes  int      `json:"passes"`
	BestCut *float64 `json:"best_cut,omitempty"`
}

// Snapshot returns a consistent copy of the current progress. Nil-safe.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{Phase: p.phase, Run: p.run, Pass: p.pass, Passes: p.passes}
	if p.hasCut {
		c := p.bestCut
		s.BestCut = &c
	}
	return s
}

func (p *Progress) setPhase(run int, name string) {
	p.mu.Lock()
	p.phase = name
	p.run = run
	p.mu.Unlock()
}

func (p *Progress) setRun(run int) {
	p.mu.Lock()
	p.run = run
	p.mu.Unlock()
}

func (p *Progress) observePass(run, pass int, cut float64) {
	p.mu.Lock()
	p.run = run
	p.pass = pass
	p.passes++
	if !p.hasCut || cut < p.bestCut {
		p.bestCut = cut
		p.hasCut = true
	}
	p.mu.Unlock()
}

// open starts a line in the reused buffer: {"ts_us":N,"ev":"...","run":N.
// Must be called with t.mu held.
func (t *Tracer) open(ev string, run int) []byte {
	b := t.buf[:0]
	b = append(b, `{"ts_us":`...)
	b = strconv.AppendInt(b, time.Since(t.epoch).Microseconds(), 10)
	b = append(b, `,"ev":"`...)
	b = append(b, ev...)
	b = append(b, `","run":`...)
	b = strconv.AppendInt(b, int64(run), 10)
	return b
}

// close terminates the line and writes it. Must be called with t.mu held.
func (t *Tracer) close(b []byte) {
	b = append(b, '}', '\n')
	t.buf = b[:0] // retain grown capacity for the next event
	if t.err == nil {
		if _, err := t.w.Write(b); err != nil {
			t.err = err
		}
	}
	t.events.Add(1)
}

func appendInt(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendStr appends a quoted string field, omitting empty values.
func appendStr(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendQuote(b, v)
}

// NewID returns a short random hex ID for request/run correlation.
func NewID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a timestamp so IDs stay usable.
		return strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}

// ctxKey is the context key type for run-ID propagation.
type ctxKey struct{}

// WithRunID returns a context carrying the request-scoped run ID.
func WithRunID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RunID extracts the run ID installed by WithRunID ("" if absent).
func RunID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}
