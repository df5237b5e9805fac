package moves

import (
	"prop/internal/obs"
)

// PairPolicy is the pair-swap variant of NodePolicy (KL, SK): each step
// swaps one node from each side, preserving side weights exactly, and
// rollback unswaps the pairs beyond the kept prefix.
type PairPolicy interface {
	// Algo names the algorithm in trace events.
	Algo() string
	// BeginPass resets per-pass state (locks, gains / D values).
	BeginPass()
	// BestPair returns the best unlocked feasible pair (a from side 0,
	// b from side 1), or ok = false to end the pass.
	BestPair() (a, b int, ok bool)
	// Swap applies and locks the swap, updates neighbor state, and
	// returns the immediate cut gain.
	Swap(a, b int) float64
	// Unswap undoes a swap during rollback (called in reverse order, only
	// on distinct locked pairs, so swaps commute with each other).
	Unswap(a, b int)
	// Cut returns the current cut cost (read after rollback, traced only).
	Cut() float64
}

// PairLoop is the canonical locked pair-swap pass. It implements
// PassRunner; drive it with Run. The log records each swap under its
// side-0 endpoint; partners are kept alongside for rollback.
type PairLoop struct {
	Pol PairPolicy

	Tracer   *obs.Tracer
	TraceRun int

	log     PassLog
	partner []int
	pass    int
}

// Algo implements PassRunner.
func (l *PairLoop) Algo() string { return l.Pol.Algo() }

// Cut implements PassRunner.
func (l *PairLoop) Cut() float64 { return l.Pol.Cut() }

// RunPass implements PassRunner for pair swaps.
func (l *PairLoop) RunPass() (float64, int, int) {
	l.Pol.BeginPass()
	l.log.Reset()
	l.partner = l.partner[:0]
	traceMoves := l.Tracer.MoveEnabled()

	for {
		a, b, ok := l.Pol.BestPair()
		if !ok {
			break
		}
		imm := l.Pol.Swap(a, b)
		l.log.Record(a, imm)
		l.partner = append(l.partner, b)
		if traceMoves {
			// One event per swap, keyed by the side-0 endpoint; the gain is
			// the whole pair's.
			l.Tracer.EmitMove(obs.Move{Run: l.TraceRun, Pass: l.pass, Node: a, Gain: imm})
		}
	}

	p, gmax := l.log.BestPrefix()
	l.log.RollbackWith(p, func(i, a int) { l.Pol.Unswap(a, l.partner[i]) })
	l.pass++
	return gmax, l.log.Len(), p
}
