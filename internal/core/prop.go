package core

import (
	"time"

	"prop/internal/ds"
	"prop/internal/moves"
	"prop/internal/obs"
	"prop/internal/partition"
)

// Result reports the outcome of a PROP run.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	Passes  int
	Moves   int
	// PassCuts records the cut cost after each pass — the convergence
	// trajectory (the paper reports convergence in 2–4 passes).
	PassCuts []float64
}

// Partition runs PROP (Fig. 2 of the paper) on the bisection in place:
// repeat passes of {seed probabilities, refine gain↔probability, move/lock
// all nodes by best probabilistic gain under the balance criterion, keep
// the maximum-prefix-immediate-gain subset} until a pass yields G_max ≤ 0.
func Partition(b *partition.Bisection, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	e := newPassEngine(b, cfg)
	var passCuts []float64
	out := moves.Run(e.loop(), 0, cfg.Tracer, cfg.TraceRun,
		func(gmax float64, m, kept int) {
			e.ps.moves, e.ps.kept = m, kept
			passCuts = append(passCuts, b.CutCost())
		})
	return Result{
		Sides:    b.Sides(),
		CutCost:  b.CutCost(),
		CutNets:  b.CutNets(),
		Passes:   out.Passes,
		Moves:    out.Moves,
		PassCuts: passCuts,
	}, nil
}

// passStats aggregates the observability counters of one pass. They are
// integer increments riding on work the pass already does, so they are
// maintained whether or not the pass is traced.
type passStats struct {
	dirtyNets   int   // dirty-net rebuilds summed over refine iterations
	swept       int   // gain recomputations across refine sweeps
	refineIters int   // refine iterations executed
	sweepWallNS int64 // wall clock of the refinement sweeps
	refreshes   int   // in-pass gain refreshes requested (neighbors + top K)
	stampSkips  int   // refreshes skipped because no net of the node changed
	moves       int   // virtual moves made
	kept        int   // moves kept after maximum-prefix rollback
}

func (s *passStats) reset() { *s = passStats{} }

type passEngine struct {
	b          *partition.Bisection
	cfg        Config
	calc       *Calculator
	gain       []float64
	gainAt     []uint64 // calc.Clock() when gain[u] was computed
	nbrScratch []bool
	nbrBuf     []int32
	topBuf     []int
	heaps      [2]*ds.GainHeap
	l          *moves.Loop

	// ps carries the current pass's observability counters.
	ps passStats

	// Dirty-net refinement state (§3.4 economics applied to the refine
	// fixpoint): after the first full sweep, only nets with a changed pin
	// probability get their side products rebuilt, once each. RebuildNet
	// stamps them, so the next sweep re-computes exactly the gains of their
	// pins (see refine).
	dirtyNet  []bool
	dirtyNets []int32
}

func newPassEngine(b *partition.Bisection, cfg Config) *passEngine {
	n := b.H.NumNodes()
	return &passEngine{
		b:          b,
		cfg:        cfg,
		calc:       NewCalculator(b),
		gain:       make([]float64, n),
		gainAt:     make([]uint64, n),
		nbrScratch: make([]bool, n),
		dirtyNet:   make([]bool, b.H.NumNets()),
	}
}

// loop lazily binds the engine to its shared pass loop (tests construct
// engines directly and call loop().RunPass).
func (e *passEngine) loop() *moves.Loop {
	if e.l == nil {
		e.l = &moves.Loop{
			B: e.b, Bal: e.cfg.Balance, Pol: e,
			Tracer: e.cfg.Tracer, TraceRun: e.cfg.TraceRun,
		}
	}
	return e.l
}

// FillPass implements moves.PassFiller: decorate the driver's pass event
// with PROP's refinement and refresh counters.
func (e *passEngine) FillPass(ev *obs.Pass) {
	ev.DirtyNets = e.ps.dirtyNets
	ev.SweptNodes = e.ps.swept
	ev.RefineIters = e.ps.refineIters
	ev.SweepWall = time.Duration(e.ps.sweepWallNS)
	ev.Refreshes = e.ps.refreshes
	ev.GainEvals = e.ps.swept + e.ps.refreshes - e.ps.stampSkips
	ev.StampSkips = e.ps.stampSkips
}

// seedProbabilities implements step 3 of Fig. 2.
func (e *passEngine) seedProbabilities() {
	n := e.b.H.NumNodes()
	switch e.cfg.Init {
	case InitDeterministic:
		for u := 0; u < n; u++ {
			e.calc.P[u] = e.cfg.Probability(e.b.Gain(u))
		}
	default: // InitBlind
		for u := 0; u < n; u++ {
			e.calc.P[u] = e.cfg.PInit
		}
	}
	e.calc.Rebuild()
}

// sweepGains recomputes e.gain[u] = calc.Gain(u), recording the clock
// each gain reflects: for every node when all is set, otherwise for the
// nodes with a net stamped since their gain was computed. The sweep wall
// clock is recorded in e.ps — two time.Now calls per sweep, feeding the
// pass event's sweep_wall_us.
func (e *passEngine) sweepGains(all bool) {
	n := e.b.H.NumNodes()
	start := time.Now()
	calc := e.calc
	at := calc.Clock()
	for u := 0; u < n; u++ {
		if all || calc.Changed(u, e.gainAt[u]) {
			e.gain[u] = calc.Gain(u)
			e.gainAt[u] = at
			e.ps.swept++
		}
	}
	e.ps.sweepWallNS += time.Since(start).Nanoseconds()
}

// refine implements step 4 of Fig. 2: alternate full gain computation
// (Eqns. 3–4) and probability recomputation, Refinements times. After the
// last iteration e.gain holds the selection gains and calc.P the matching
// probabilities.
//
// The first iteration sweeps every node. Each iteration rebuilds only the
// dirty nets' side products instead of a full O(m) Rebuild, and the next
// one re-sweeps only the pins of those nets: RebuildNet stamps each net it
// rebuilds, and no net is dead during refine (ResetLocks has just run), so
// calc.Changed picks out exactly those pins — a node's gain depends only
// on its own probability and its nets' products, and its own P change
// dirties its nets. Both reductions are exact, so refine produces
// bit-identical gains and probabilities to the full-resweep/full-rebuild
// formulation (TestRefineMatchesReference).
func (e *passEngine) refine() {
	if e.cfg.Refinements == 0 {
		// Degenerate configuration: selection still needs gains.
		e.sweepGains(true)
		return
	}
	for it := 0; it < e.cfg.Refinements; it++ {
		if it > 0 && len(e.dirtyNets) == 0 {
			break // fixpoint: no net product changed, gains are final
		}
		e.sweepGains(it == 0)
		e.ps.refineIters++
		e.applyProbabilities()
	}
}

// applyProbabilities maps the freshly swept gains through the probability
// function, writes the changed probabilities and rebuilds the side
// products of the affected (dirty) nets exactly.
func (e *passEngine) applyProbabilities() {
	h := e.b.H
	calc := e.calc
	// Clear the previous iteration's dirty-net marks.
	for _, en := range e.dirtyNets {
		e.dirtyNet[en] = false
	}
	e.dirtyNets = e.dirtyNets[:0]
	n := h.NumNodes()
	for u := 0; u < n; u++ {
		p := e.cfg.Probability(e.gain[u])
		if calc.Locked[u] || calc.P[u] == p {
			continue
		}
		calc.P[u] = p
		for _, en := range h.NetsOf(u) {
			if !e.dirtyNet[en] {
				e.dirtyNet[en] = true
				e.dirtyNets = append(e.dirtyNets, en)
			}
		}
	}
	// Exact per-net rebuild of the touched products: identical values to a
	// full Rebuild because clean nets' stored products were computed by the
	// same per-net recurrence over unchanged probabilities.
	for _, en := range e.dirtyNets {
		calc.RebuildNet(int(en))
	}
	e.ps.dirtyNets += len(e.dirtyNets)
}

// Algo implements moves.NodePolicy.
func (e *passEngine) Algo() string { return "prop" }

// Key implements moves.NodePolicy: selection orders by probabilistic gain.
func (e *passEngine) Key(u int) float64 { return e.gain[u] }

// BeginPass implements moves.NodePolicy — steps 3–4 of Fig. 2: reset the
// pass counters and locks, seed probabilities, run the gain↔probability
// refinement, then fill one gain heap per side for selection.
func (e *passEngine) BeginPass() [2]moves.Container {
	n := e.b.H.NumNodes()
	e.ps.reset()
	e.calc.ResetLocks()
	e.seedProbabilities()
	e.refine()

	e.heaps = [2]*ds.GainHeap{ds.NewGainHeap(n), ds.NewGainHeap(n)}
	for u := 0; u < n; u++ {
		e.heaps[e.b.Side(u)].Insert(u, e.gain[u])
	}
	return [2]moves.Container{moves.WrapHeap(e.heaps[0]), moves.WrapHeap(e.heaps[1])}
}

// MoveLock implements moves.NodePolicy — steps 7–8 of Fig. 2: realize the
// move, lock u, then propagate the probability updates of §3.4.
func (e *passEngine) MoveLock(u int) float64 {
	imm := e.calc.MoveLock(u)
	e.updateAfterMove(u)
	return imm
}

// updateAfterMove implements §3.4: recompute gains (and hence
// probabilities) of u's unlocked neighbors, then refresh the TopK
// contenders on each side, whose gains may be stale because they involve
// neighbors-of-neighbors probabilities just changed.
//
// Neighbor updates are filtered per net by the magnitude of the freeing-
// probability change the move caused: a hub net whose side products are
// already ≈ 0 contributes gain changes below epsilon to every pin, so its
// pins are skipped — the same partial-update economics §3.4 argues for
// ("the benefit of doing such a complete updating is minimal at best and
// it is very time consuming"). Structural transitions (net entering the
// cutset or collapsing onto one side) are always propagated.
func (e *passEngine) updateAfterMove(u int) {
	const eps = 1e-7
	h := e.b.H
	t := e.b.Side(u) // u already moved: t is its new side
	s := 1 - t
	e.nbrBuf = e.nbrBuf[:0]
	u32 := int32(u)
	for _, nt32 := range h.NetsOf(u) {
		nt := int(nt32)
		relevant := e.b.PinCount(t, nt) == 1 || // net just entered the cutset (or u is its lone t pin)
			e.b.PinCount(s, nt) == 0 || // net just collapsed onto side t
			e.calc.Prod(s, nt) > eps || // s-side freeing probability moved materially
			(e.calc.LockedPins(t, nt) == 1 && e.calc.Prod(t, nt) > eps) // first lock killed the t-side term
		if !relevant {
			continue
		}
		for _, v := range h.Net(nt) {
			if v != u32 && !e.calc.Locked[v] && !e.nbrScratch[v] {
				e.nbrScratch[v] = true
				e.nbrBuf = append(e.nbrBuf, v)
			}
		}
	}
	for _, v := range e.nbrBuf {
		e.nbrScratch[v] = false
		e.refreshNode(int(v))
	}
	if e.cfg.TopK > 0 {
		for s := 0; s < 2; s++ {
			e.topBuf = e.heaps[s].TopK(e.cfg.TopK, e.topBuf[:0])
			for _, v := range e.topBuf {
				e.refreshNode(v)
			}
		}
	}
}

// refreshNode recomputes v's gain and, if it changed, its probability and
// heap key. When no net of v was stamped since gain[v] was computed,
// Gain(v) would return gain[v] bit for bit, so the refresh is skipped.
func (e *passEngine) refreshNode(v int) {
	e.ps.refreshes++
	calc := e.calc
	if !calc.Changed(v, e.gainAt[v]) {
		e.ps.stampSkips++
		return
	}
	e.gainAt[v] = calc.Clock()
	g := calc.Gain(v)
	if g == e.gain[v] {
		return
	}
	e.gain[v] = g
	calc.SetP(v, e.cfg.Probability(g))
	e.heaps[e.b.Side(v)].Insert(v, g) // reinsert: in-place keyed update
}
