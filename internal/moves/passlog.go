package moves

import "prop/internal/partition"

// PassLog records the virtual moves of one pass and keeps the running
// maximum prefix sum G_max of their immediate gains as they arrive; at
// pass end, moves beyond that prefix are undone with RollbackBeyond
// (bisection moves) or RollbackWith (arbitrary undo, e.g. pair swaps or
// k-way moves). This is the shared KL/FM/LA/PROP pass protocol (steps 7,
// 9–10 of Fig. 2 in the paper).
type PassLog struct {
	nodes []int
	sum   float64 // prefix sum of every recorded gain
	gmax  float64 // best prefix sum so far, reached after p moves
	p     int
}

// Reset clears the log, retaining capacity.
func (l *PassLog) Reset() {
	l.nodes = l.nodes[:0]
	l.sum, l.gmax, l.p = 0, 0, 0
}

// Record appends one virtual move and its immediate gain. The prefix sum
// must exceed the best one by more than EpsGain to become the new best.
func (l *PassLog) Record(node int, immediateGain float64) {
	l.nodes = append(l.nodes, node)
	l.sum += immediateGain
	if l.sum > l.gmax+EpsGain {
		l.gmax, l.p = l.sum, len(l.nodes)
	}
}

// Len returns the number of recorded moves.
func (l *PassLog) Len() int { return len(l.nodes) }

// Sum returns the prefix sum over every recorded move.
func (l *PassLog) Sum() float64 { return l.sum }

// BestPrefix returns the smallest p maximizing the prefix sum S_p = Σ_{t≤p}
// gain_t, along with G_max = S_p. p = 0 (and G_max = 0) means no move should
// be kept.
func (l *PassLog) BestPrefix() (p int, gmax float64) { return l.p, l.gmax }

// RollbackBeyond undoes all moves after the first p, restoring b to the
// state corresponding to prefix p. Moves are undone in reverse order.
func (l *PassLog) RollbackBeyond(b *partition.Bisection, p int) {
	for i := len(l.nodes) - 1; i >= p; i-- {
		b.Move(l.nodes[i])
	}
}

// RollbackWith undoes all moves after the first p through the caller's
// undo function, invoked in reverse record order with the record index and
// node. Engines whose inverse move is not a bisection toggle (pair swaps,
// k-way reassignment) use this instead of RollbackBeyond.
func (l *PassLog) RollbackWith(p int, undo func(i, node int)) {
	for i := len(l.nodes) - 1; i >= p; i-- {
		undo(i, l.nodes[i])
	}
}
