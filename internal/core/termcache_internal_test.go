package core

import (
	"math"
	"math/rand"
	"testing"

	"prop/internal/cluster"
	"prop/internal/gen"
	"prop/internal/hypergraph"
	"prop/internal/moves"
	"prop/internal/partition"
)

// lockstep drives two engines over copies of one bisection through the
// same moves: the loop selects on the cached engine's heaps, and after
// the pass start and after every move both engines must hold the same
// gains, probabilities and heap keys, bit for bit.
type lockstep struct {
	t              *testing.T
	cached, sparse *passEngine
}

func (p *lockstep) Algo() string      { return "prop" }
func (p *lockstep) Key(u int) float64 { return p.cached.Key(u) }

func (p *lockstep) BeginPass() [2]moves.Container {
	p.syncSides()
	c := p.cached.BeginPass()
	p.sparse.BeginPass()
	p.check("pass start")
	return c
}

func (p *lockstep) MoveLock(u int) float64 {
	p.sparse.heaps[p.sparse.b.Side(u)].Delete(u) // the loop removed it from the cached heap
	imm := p.cached.MoveLock(u)
	if got := p.sparse.MoveLock(u); got != imm {
		p.t.Fatalf("move %d: immediate gain %g cached, %g sparse", u, imm, got)
	}
	p.check("move")
	return imm
}

// syncSides replays the loop's rollback, which only the cached engine's
// bisection saw, on the sparse engine's.
func (p *lockstep) syncSides() {
	for u := 0; u < p.cached.b.H.NumNodes(); u++ {
		if p.sparse.b.Side(u) != p.cached.b.Side(u) {
			p.sparse.b.Move(u)
		}
	}
}

func (p *lockstep) check(when string) {
	p.t.Helper()
	a, b := p.cached, p.sparse
	for u := range a.gain {
		if math.Float64bits(a.gain[u]) != math.Float64bits(b.gain[u]) || a.calc.P[u] != b.calc.P[u] {
			p.t.Fatalf("%s: node %d gain %v p %v cached, gain %v p %v sparse",
				when, u, a.gain[u], a.calc.P[u], b.gain[u], b.calc.P[u])
		}
		for s := 0; s < 2; s++ {
			ha, hb := a.heaps[s], b.heaps[s]
			if ha.Contains(u) != hb.Contains(u) || ha.Contains(u) && ha.Gain(u) != hb.Gain(u) {
				p.t.Fatalf("%s: node %d in side %d heap: cached %v, sparse %v", when, u, s, ha.Contains(u), hb.Contains(u))
			}
		}
	}
}

// TestTermCacheMatchesSparse runs PROP on the coarsest V-cycle level of
// the 30k-node scale circuit, where nodes average over a hundred nets and
// the term cache serves every gain, next to an engine forced onto the
// sparse path (Changed + Gain) by dropping its cache. From four random
// starts, every pass's gains, probabilities, heap keys, moves, sides and
// cut must match, and so must the refresh counters; the cache must
// recompute fewer terms than the sparse path walks nets.
func TestTermCacheMatchesSparse(t *testing.T) {
	h, err := gen.GenerateScale(gen.ScaleParams{Nodes: 30000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := hypergraph.NewContracted(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.CoarsenRounds(c, 120, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	g, _, err := c.CoarseGraph()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(partition.B4555())
	var terms, nets int
	for start := int64(0); start < 4; start++ {
		sides := partition.RandomSides(g, cfg.Balance, rand.New(rand.NewSource(start)))
		engine := func() *passEngine {
			b, err := partition.NewBisection(g, append([]uint8(nil), sides...))
			if err != nil {
				t.Fatal(err)
			}
			return newPassEngine(b, cfg)
		}
		p := &lockstep{t: t, cached: engine(), sparse: engine()}
		if !p.cached.calc.TermsCached() {
			t.Fatalf("coarsest level: %d nodes, %d pins, no term cache", g.NumNodes(), g.NumPins())
		}
		p.sparse.calc.term = nil
		l := &moves.Loop{B: p.cached.b, Bal: cfg.Balance, Pol: p}
		out := moves.Run(l, 0, nil, 0, func(float64, int, int) {
			p.syncSides()
			a, b := p.cached, p.sparse
			if string(a.b.SideView()) != string(b.b.SideView()) || a.b.CutCost() != b.b.CutCost() {
				t.Fatalf("start %d: cut %g cached, %g sparse", start, a.b.CutCost(), b.b.CutCost())
			}
			ca, cb := a.ps, b.ps
			if ca.swept != cb.swept || ca.refreshes != cb.refreshes || ca.stampSkips != cb.stampSkips ||
				ca.gainNets != cb.gainNets || cb.gainTerms != cb.gainNets || ca.gainTerms > ca.gainNets {
				t.Fatalf("start %d: pass counters %+v cached, %+v sparse", start, ca, cb)
			}
			terms, nets = terms+ca.gainTerms, nets+ca.gainNets
		})
		t.Logf("start %d: %d passes, cut %g", start, out.Passes, p.cached.b.CutCost())
	}
	if 2*terms > nets {
		t.Errorf("the cache recomputed %d terms of %d nets walked, want under half", terms, nets)
	}
	t.Logf("%d nodes, %d nets, %d pins: %d terms recomputed of %d nets walked",
		g.NumNodes(), g.NumNets(), g.NumPins(), terms, nets)
}
