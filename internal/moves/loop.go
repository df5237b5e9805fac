package moves

import (
	"prop/internal/obs"
	"prop/internal/partition"
)

// NodePolicy is everything heuristic-specific about a single-node pass.
// The Loop owns the protocol: it asks the policy for fresh per-side
// containers at pass start, selects the best feasible node under the
// balance criterion, and hands each selected node to MoveLock; the policy
// performs the move on its own state and maintains whatever gain/
// probability bookkeeping its selection keys need (reinserting updated
// neighbors into the containers it returned).
type NodePolicy interface {
	// Algo names the algorithm in trace events.
	Algo() string
	// BeginPass resets per-pass state (locks, gains, probabilities) and
	// returns the filled per-side containers for this pass.
	BeginPass() [2]Container
	// Key returns u's current selection key, used only to compare the two
	// sides' best feasible candidates (ties keep side 0, the historical
	// tie-break of every engine here).
	Key(u int) float64
	// MoveLock moves the already-selected-and-removed node u, locks it,
	// updates neighbor state, and returns the immediate cut gain.
	MoveLock(u int) float64
}

// Loop is the canonical single-node locked-move pass over a Bisection.
// It implements PassRunner; drive it with Run.
type Loop struct {
	B   *partition.Bisection
	Bal partition.Balance
	Pol NodePolicy

	// Tracer/TraceRun label per-move events (move-level tracing only;
	// pass-level events are emitted by Run).
	Tracer   *obs.Tracer
	TraceRun int

	log  PassLog
	pass int
	// key and feas are built once and reused across selections — a
	// per-move method-value or closure here is a per-move allocation.
	key  func(u int) float64
	feas func(u int) bool
}

// Algo implements PassRunner.
func (l *Loop) Algo() string { return l.Pol.Algo() }

// Cut implements PassRunner.
func (l *Loop) Cut() float64 { return l.B.CutCost() }

// FillPass forwards trace-event decoration to the policy when it
// implements PassFiller.
func (l *Loop) FillPass(ev obs.Pass) obs.Pass {
	if f, ok := l.Pol.(PassFiller); ok {
		return f.FillPass(ev)
	}
	return ev
}

// RunPass implements PassRunner: steps 5–10 of the paper's pass protocol.
func (l *Loop) RunPass() (float64, int, int) {
	side := l.Pol.BeginPass()
	l.log.Reset()
	traceMoves := l.Tracer.MoveEnabled()
	if l.key == nil {
		l.key = l.Pol.Key
		l.feas = func(u int) bool { return l.B.CanMove(u, l.Bal) }
	}

	for side[0].Len()+side[1].Len() > 0 {
		u, ok := selectBest(l.B, l.Bal, side, l.key, l.feas)
		if !ok {
			break
		}
		side[l.B.Side(u)].Remove(u)
		imm := l.Pol.MoveLock(u)
		l.log.Record(u, imm)
		if traceMoves {
			l.Tracer.EmitMove(obs.Move{Run: l.TraceRun, Pass: l.pass, Node: u, Gain: imm})
		}
	}

	p, gmax := l.log.BestPrefix()
	l.log.RollbackBeyond(l.B, p)
	l.pass++
	return gmax, l.log.Len(), p
}

// selectBest picks the unlocked node with the maximum key that passes
// feas; if the overall best is infeasible, the best node of the other
// subset is taken (paper §2, step 6 of Fig. 2). The per-side CanMoveFrom
// pre-check skips a side's entire scan when no node of that side can
// legally move.
func selectBest(b *partition.Bisection, bal partition.Balance, side [2]Container, key func(u int) float64, feas func(u int) bool) (int, bool) {
	var u0, u1 int
	var ok0, ok1 bool
	if b.CanMoveFrom(0, bal) {
		u0, ok0 = side[0].FirstFeasible(feas)
	}
	if b.CanMoveFrom(1, bal) {
		u1, ok1 = side[1].FirstFeasible(feas)
	}
	switch {
	case ok0 && ok1:
		if key(u0) >= key(u1) {
			return u0, true
		}
		return u1, true
	case ok0:
		return u0, true
	case ok1:
		return u1, true
	}
	return -1, false
}
