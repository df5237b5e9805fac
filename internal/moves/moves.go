// Package moves is the shared locked-move pass engine behind every
// iterative-improvement partitioner in this repository (FM, LA, SK, KL
// and PROP). The paper's whole family shares one skeleton — pick the best
// unlocked node (or pair) under the balance criterion, move it, lock it,
// update neighbor gains, then keep the maximum-prefix-immediate-gain
// subset and repeat until a pass yields no positive G_max (Fig. 1 steps
// 5–10, Fig. 2 steps 5–10). This package owns that skeleton exactly once:
//
//   - Run drives pass-level convergence (G_max ≤ EpsGain or maxPasses)
//     and emits one obs.Pass trace event per pass.
//   - Loop is the canonical single-node pass: balance-gated best-first
//     selection over two Containers, immediate-gain logging, and
//     prefix-max rollback. Algorithms plug in via NodePolicy.
//   - PairLoop is the pair-swap variant (KL, SK) via PairPolicy.
//   - PassLog implements the virtual-move log and the maximum-prefix
//     computation and rollback shared by all of the above.
//
// A policy owns everything heuristic-specific: which gain container the
// pass uses (bucket array or indexed gain heap — see Container), how a
// node's selection key is computed, and what state to update after a move
// locks (delta gain rules for FM, gain-vector recomputation for LA,
// probability refresh for PROP). The engine owns everything protocol-
// shaped, so speedups and observability land in one place and every
// heuristic inherits them.
package moves

import (
	"time"

	"prop/internal/obs"
)

// EpsGain is the shared convergence and prefix-improvement epsilon: a pass
// whose G_max does not exceed it terminates the run, and a prefix sum must
// exceed the running maximum by more than it to advance the kept prefix
// (guarding against float drift manufacturing endless ±0 passes).
const EpsGain = 1e-12

// PassRunner is one pass of a concrete algorithm, as consumed by Run.
// Loop, PairLoop and Localized implement it.
type PassRunner interface {
	// Algo names the algorithm in trace events ("fm", "la", "prop", ...).
	Algo() string
	// RunPass executes one full pass and returns the realized G_max, the
	// number of virtual moves made, and the kept prefix length.
	RunPass() (gmax float64, moves, kept int)
	// Cut returns the current cut cost (read after rollback, traced only).
	Cut() float64
}

// PassFiller lets a PassRunner (or its policy) decorate the pass trace
// event with algorithm-specific counters before emission. The event goes
// in and comes back by value: a pointer through this interface call would
// move it to the heap on every traced pass.
type PassFiller interface {
	FillPass(obs.Pass) obs.Pass
}

// Outcome aggregates a Run.
type Outcome struct {
	Passes int
	Moves  int // virtual moves across all passes
	Kept   int // moves kept after prefix-max rollback, across all passes
}

// Run drives r to convergence: passes repeat until one realizes
// G_max ≤ EpsGain or maxPasses (when > 0) is reached. afterPass, when
// non-nil, observes every pass's outcome after its rollback (before trace
// emission) — PROP uses it to collect its convergence trajectory and
// per-pass counters.
//
// When tracer has pass-level tracing enabled, one obs.Pass event is
// emitted per pass with the protocol fields (cut, G_max, moves, kept,
// locked, duration) filled by the driver; if r also implements
// PassFiller it decorates the event with its own counters. Tracing is
// observation-only: results are bit-identical with it on or off.
func Run(r PassRunner, maxPasses int, tracer *obs.Tracer, run int, afterPass func(gmax float64, moves, kept int)) Outcome {
	traced := tracer.PassEnabled()
	filler, _ := r.(PassFiller)
	var passStart time.Time
	if traced {
		passStart = time.Now()
	}
	var out Outcome
	for {
		gmax, moves, kept := r.RunPass()
		out.Passes++
		out.Moves += moves
		out.Kept += kept
		if afterPass != nil {
			afterPass(gmax, moves, kept)
		}
		if traced {
			now := time.Now()
			ev := obs.Pass{
				Algo: r.Algo(), Run: run, Pass: out.Passes - 1,
				Cut: r.Cut(), Gmax: gmax,
				Moves: moves, Kept: kept, Locked: moves,
				Dur: now.Sub(passStart),
			}
			if filler != nil {
				ev = filler.FillPass(ev)
			}
			tracer.EmitPass(ev)
			passStart = now
		}
		if gmax <= EpsGain || (maxPasses > 0 && out.Passes >= maxPasses) {
			break
		}
	}
	return out
}
