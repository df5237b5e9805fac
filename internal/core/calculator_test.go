package core_test

import (
	"math"
	"math/rand"
	"testing"

	"prop/internal/core"
	"prop/internal/gen"
	"prop/internal/partition"
)

func randomCalc(t *testing.T, nodes, nets, pins int, seed int64) *core.Calculator {
	t.Helper()
	h := gen.MustGenerate(gen.Params{Nodes: nodes, Nets: nets, Pins: pins, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))
	b, err := partition.NewBisection(h, partition.RandomSides(h, partition.Exact5050(), rng))
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCalculator(b)
	for u := range c.P {
		c.P[u] = 0.4 + 0.55*rng.Float64()
	}
	c.Rebuild()
	return c
}

// TestSetPLockedNoop: SetP on a locked node must not touch P or the side
// products — a locked node's probability is pinned to 0 (Eqns. 5–6), and a
// write here would corrupt every product the node participates in for the
// rest of the pass.
func TestSetPLockedNoop(t *testing.T) {
	c := randomCalc(t, 150, 170, 560, 21)
	h := c.B.H
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		u := rng.Intn(h.NumNodes())
		if !c.Locked[u] {
			c.MoveLock(u)
		}
		before := [2][]float64{}
		for s := 0; s < 2; s++ {
			before[s] = make([]float64, h.NumNets())
			for e := 0; e < h.NumNets(); e++ {
				before[s][e] = c.Prod(uint8(s), e)
			}
		}
		c.SetP(u, 0.7)
		if c.P[u] != 0 {
			t.Fatalf("SetP on locked node %d wrote P = %g, want 0", u, c.P[u])
		}
		for s := 0; s < 2; s++ {
			for e := 0; e < h.NumNets(); e++ {
				if c.Prod(uint8(s), e) != before[s][e] {
					t.Fatalf("SetP on locked node %d changed prod[%d][%d]: %g -> %g",
						u, s, e, before[s][e], c.Prod(uint8(s), e))
				}
			}
		}
	}
}

// exactProds recomputes every net's side products from scratch.
func exactProds(c *core.Calculator) [2][]float64 {
	h := c.B.H
	var out [2][]float64
	out[0] = make([]float64, h.NumNets())
	out[1] = make([]float64, h.NumNets())
	for e := 0; e < h.NumNets(); e++ {
		p0, p1 := 1.0, 1.0
		for _, v := range h.Net(e) {
			if c.Locked[v] {
				continue
			}
			if c.B.Side(int(v)) == 0 {
				p0 *= c.P[v]
			} else {
				p1 *= c.P[v]
			}
		}
		out[0][e], out[1][e] = p0, p1
	}
	return out
}

// TestCalculatorDriftGuard: after thousands of random SetP/MoveLock/Reset
// operations the incrementally maintained products stay within 1e-9 of an
// exact recompute.
func TestCalculatorDriftGuard(t *testing.T) {
	c := randomCalc(t, 300, 330, 1100, 31)
	h := c.B.H
	rng := rand.New(rand.NewSource(7))
	locked := 0
	for op := 0; op < 20000; op++ {
		u := rng.Intn(h.NumNodes())
		switch {
		case locked > h.NumNodes()/2:
			c.ResetLocks()
			for v := range c.P {
				c.P[v] = 0.4 + 0.55*rng.Float64()
			}
			c.Rebuild()
			locked = 0
		case c.Locked[u]:
			// skip
		case rng.Intn(20) == 0:
			c.MoveLock(u)
			locked++
		default:
			c.SetP(u, 0.4+0.55*rng.Float64())
		}
	}
	exact := exactProds(c)
	for s := 0; s < 2; s++ {
		for e := 0; e < h.NumNets(); e++ {
			got, want := c.Prod(uint8(s), e), exact[s][e]
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("prod[%d][%d] drifted: incremental %g, exact %g", s, e, got, want)
			}
		}
	}
}

// TestLockZeroProbability: locking a node whose probability is 0 takes it
// out of its nets' products by rebuilding them, so the rebuild must see
// the node already locked. Otherwise its zero factor stays in the product
// after it has left.
func TestLockZeroProbability(t *testing.T) {
	c := randomCalc(t, 120, 130, 440, 17)
	h := c.B.H
	for u := 0; u < h.NumNodes(); u += 7 {
		c.P[u] = 0
	}
	c.Rebuild()
	for u := 0; u < h.NumNodes(); u += 7 {
		if u%2 == 0 {
			c.MoveLock(u)
		} else {
			c.Lock(u)
		}
	}
	exact := exactProds(c)
	for s := 0; s < 2; s++ {
		for e := 0; e < h.NumNets(); e++ {
			if got, want := c.Prod(uint8(s), e), exact[s][e]; got != want {
				t.Fatalf("prod[%d][%d] = %g after locking zero-probability pins, exact %g", s, e, got, want)
			}
		}
	}
}

// TestGainMatchesNetGainSum: the fused flat Gain loop must be bit-identical
// to the composed Σ_e NetGain(u, e) it replaces — same float operations in
// the same order, across unlocked and locked nodes and every lock state a
// pass produces.
func TestGainMatchesNetGainSum(t *testing.T) {
	c := randomCalc(t, 250, 280, 930, 41)
	h := c.B.H
	rng := rand.New(rand.NewSource(9))
	check := func(stage string) {
		for u := 0; u < h.NumNodes(); u++ {
			var want float64
			for _, e := range h.NetsOf(u) {
				want += c.NetGain(u, int(e))
			}
			if got := c.Gain(u); got != want {
				t.Fatalf("%s: Gain(%d) = %g, Σ NetGain = %g (not bitwise equal)", stage, u, got, want)
			}
		}
	}
	check("fresh")
	for i := 0; i < 60; i++ {
		u := rng.Intn(h.NumNodes())
		if c.Locked[u] {
			continue
		}
		if rng.Intn(4) == 0 {
			c.MoveLock(u)
		} else {
			c.SetP(u, 0.4+0.55*rng.Float64())
		}
	}
	check("after moves")
	// Zero-probability pins exercise the exact-recompute fallback path.
	for i := 0; i < 10; i++ {
		u := rng.Intn(h.NumNodes())
		if !c.Locked[u] {
			c.P[u] = 0
		}
	}
	c.Rebuild()
	check("with zero pins")
}

// FuzzCalculatorStamps pins the change-stamp contract the PROP pass engine
// relies on to skip refreshes, and the term cache built on it. Each op is
// three bytes: kind, node, and a probability code. The ops are SetP (zero
// probabilities included), a bulk P write followed by RebuildNet on every
// net of the node (the refine path), MoveLock, Lock, RebuildNet and
// Rebuild. They run on a sparse graph and on a dense one (average degree
// above termCacheDegree). A node's gain is recorded together with the
// clock it was computed at, as refreshNode does. After every op, each
// node whose nets carry no newer stamp must still have that gain, bit for
// bit; and on the dense graph every unlocked node's terms, refreshed for
// the nets stamped since its previous refresh, must sum to Gain bit for
// bit.
func FuzzCalculatorStamps(f *testing.F) {
	f.Add(int64(1), []byte{2, 3, 0, 2, 9, 0, 0, 4, 5, 2, 17, 0, 0, 9, 1, 3, 22, 0, 0, 30, 6, 5, 0, 0})
	f.Add(int64(2), []byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 3, 2, 0, 1, 5, 3, 0, 6, 2, 4, 7, 0, 2, 8, 0, 0, 9, 4})
	f.Add(int64(3), []byte{2, 0, 0, 2, 1, 0, 2, 2, 0, 2, 3, 0, 2, 4, 0, 2, 5, 0, 0, 6, 1, 0, 7, 2, 0, 8, 3})
	// A net with a locked pin on one side only is still live: writes to
	// it must be stamped.
	f.Add(int64(-104), []byte("C\xb707800\xd50"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		sparse := randomCalc(t, 40, 48, 150, seed)
		dense := randomCalc(t, 12, 40, 240, seed)
		if sparse.TermsCached() || !dense.TermsCached() {
			t.Fatalf("term cache on the sparse graph %v, on the dense graph %v",
				sparse.TermsCached(), dense.TermsCached())
		}
		checkStamps(t, sparse, ops)
		checkStamps(t, dense, ops)
	})
}

// checkStamps applies FuzzCalculatorStamps's ops to c and checks the
// recorded gains, and the term cache when c keeps one, after each.
func checkStamps(t *testing.T, c *core.Calculator, ops []byte) {
	t.Helper()
	h := c.B.H
	n := h.NumNodes()
	gain := make([]float64, n)
	at := make([]uint64, n)
	record := func(u int) {
		at[u] = c.Clock()
		gain[u] = c.Gain(u)
	}
	termsAt := make([]uint64, n) // 0: every term is stale
	for u := 0; u < n; u++ {
		record(u)
	}
	for i := 0; i+3 <= len(ops); i += 3 {
		u := int(ops[i+1]) % n
		p := float64(ops[i+2]%5) / 4 // 0, .25, .5, .75, 1
		switch ops[i] % 8 {
		case 0, 1:
			c.SetP(u, p)
		case 2:
			if !c.Locked[u] {
				c.MoveLock(u)
			}
		case 3:
			c.Lock(u)
		case 4:
			if !c.Locked[u] {
				c.P[u] = p
				for _, e := range h.NetsOf(u) {
					c.RebuildNet(int(e))
				}
			}
		case 5:
			c.RebuildNet(int(ops[i+1]) % h.NumNets())
		case 6:
			c.Rebuild()
		case 7:
			record(u)
		}
		for v := 0; v < n; v++ {
			if c.Changed(v, at[v]) {
				continue
			}
			if g := c.Gain(v); math.Float64bits(g) != math.Float64bits(gain[v]) {
				t.Fatalf("op %d: node %d unchanged since clock %d, but Gain = %v, recorded %v",
					i/3, v, at[v], g, gain[v])
			}
		}
		if !c.TermsCached() {
			continue
		}
		for v := 0; v < n; v++ {
			if c.Locked[v] {
				continue
			}
			c.RefreshTerms(v, termsAt[v])
			termsAt[v] = c.Clock()
			if g, want := c.CachedGain(v), c.Gain(v); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("op %d: node %d cached gain %v, Gain %v", i/3, v, g, want)
			}
		}
	}
}
