package core

// Calculator evaluates PROP's probabilistic net and node gains (Eqns. 2–6)
// for an arbitrary probability assignment and lock state over a bisection.
// It is the computational core of the partitioner and is exported within
// this module so examples and tests can reproduce the paper's Figure 1
// numerics directly.
//
// Following §3.4 of the paper ("after moving a node u ... we first update
// p(n^{1→2}) and p(n^{2→1}) of every net that u is connected to"), the
// calculator maintains, per net and side, the product of the probabilities
// of the unlocked pins. Node gains then cost Θ(deg) regardless of net
// sizes. Products are maintained incrementally under SetP/MoveLock and
// rebuilt exactly by Rebuild (call it after writing P directly).
//
// Every write to a gain input also stamps the nets it touches from a
// mutation clock, so a caller that records Clock() when it computes
// Gain(u) can later ask Changed(u, at) whether that value can still be
// current: if no net of u carries a newer stamp, Gain(u) would return the
// same bits. A net with a locked pin on each side is dead — it adds
// exactly 0 to every pin's gain for the rest of the pass (Eqns. 5–6) — so
// writes to it are not stamped.
import (
	"prop/internal/partition"
)

// Calculator computes probabilistic gains over b. P holds the current node
// probabilities; Locked marks nodes locked this pass (their probability is
// implicitly 0 and nets they pin can never be freed from their side —
// Eqns. 5 and 6 fall out of this treatment).
type Calculator struct {
	B *partition.Bisection
	// P is the node probability vector. Write it directly only in bulk,
	// followed by Rebuild (or RebuildNet per touched net); use SetP for
	// incremental changes.
	P      []float64
	Locked []bool

	lockedPins [2][]int32
	// prod[s][e] = Π P[v] over unlocked pins v of net e on side s.
	prod [2][]float64

	// clock counts writes to gain inputs; stamp[e] is the clock of the
	// last write that touched net e while it was live.
	clock uint64
	stamp []uint64
}

// NewCalculator creates a Calculator with no locked nodes and probabilities
// all zero. Seed P (directly or via SetP after a Rebuild) before computing
// gains.
func NewCalculator(b *partition.Bisection) *Calculator {
	n := b.H.NumNodes()
	c := &Calculator{
		B:      b,
		P:      make([]float64, n),
		Locked: make([]bool, n),
	}
	e := b.H.NumNets()
	c.lockedPins[0] = make([]int32, e)
	c.lockedPins[1] = make([]int32, e)
	c.prod[0] = make([]float64, e)
	c.prod[1] = make([]float64, e)
	c.stamp = make([]uint64, e)
	c.Rebuild()
	return c
}

// Rebuild recomputes every net's side products exactly from P, the lock
// state and the current side assignment, and stamps every net. Call after
// bulk writes to P, ResetLocks, or side changes made outside the
// calculator (a pass's rollback).
func (c *Calculator) Rebuild() {
	h := c.B.H
	side := c.B.SideView()
	c.clock++
	for e := 0; e < h.NumNets(); e++ {
		c.stamp[e] = c.clock
		p0, p1 := 1.0, 1.0
		for _, v := range h.Net(e) {
			if c.Locked[v] {
				continue
			}
			if side[v] == 0 {
				p0 *= c.P[v]
			} else {
				p1 *= c.P[v]
			}
		}
		c.prod[0][e], c.prod[1][e] = p0, p1
	}
}

// Clock returns the mutation clock. A gain computed now reflects every
// write stamped at or before it.
func (c *Calculator) Clock() uint64 { return c.clock }

// Changed reports whether any net of u was stamped after clock value at,
// that is, whether Gain(u) may differ from its value when Clock() read
// at. When it reports false, Gain(u) returns that value bit for bit.
func (c *Calculator) Changed(u int, at uint64) bool {
	for _, e := range c.B.H.NetsOf(u) {
		if c.stamp[e] > at {
			return true
		}
	}
	return false
}

// touch stamps net e for a write at the current clock unless the net is
// dead: with a locked pin on each side both freeing probabilities are 0
// and the net stays cut, so it adds exactly cost·0 = 0 to every pin's
// gain (for a finite cost).
func (c *Calculator) touch(e int32) {
	if c.lockedPins[0][e] == 0 || c.lockedPins[1][e] == 0 {
		c.stamp[e] = c.clock
	}
}

// ResetLocks clears all locks (start of a pass) and rebuilds products.
func (c *Calculator) ResetLocks() {
	for i := range c.Locked {
		c.Locked[i] = false
	}
	for s := 0; s < 2; s++ {
		for i := range c.lockedPins[s] {
			c.lockedPins[s][i] = 0
		}
	}
	c.Rebuild()
}

// SetP changes the probability of node u, maintaining the side products of
// its nets. Locked nodes have their probability pinned to 0 (Eqns. 5–6);
// SetP on a locked node is a no-op so the lock invariant P[u] == 0 and the
// side products cannot be corrupted.
func (c *Calculator) SetP(u int, p float64) {
	if c.Locked[u] {
		return
	}
	old := c.P[u]
	if old == p {
		return
	}
	c.P[u] = p
	s := c.B.Side(u)
	h := c.B.H
	if old == 0 {
		// Cannot divide out a zero factor: rebuild the affected nets.
		for _, e := range h.NetsOf(u) {
			c.rebuildNet(int(e))
		}
		return
	}
	c.clock++
	ratio := p / old
	prodS := c.prod[s]
	for _, e := range h.NetsOf(u) {
		prodS[e] *= ratio
		c.touch(e)
	}
}

// RebuildNet recomputes the two side products of net e exactly. Use it
// after writing P directly for a known set of touched nets (the dirty-net
// refinement path) instead of a full Rebuild.
func (c *Calculator) RebuildNet(e int) { c.rebuildNet(e) }

func (c *Calculator) rebuildNet(e int) {
	c.clock++
	c.touch(int32(e))
	side := c.B.SideView()
	p0, p1 := 1.0, 1.0
	for _, v := range c.B.H.Net(e) {
		if c.Locked[v] {
			continue
		}
		if side[v] == 0 {
			p0 *= c.P[v]
		} else {
			p1 *= c.P[v]
		}
	}
	c.prod[0][e], c.prod[1][e] = p0, p1
}

// Lock marks u (currently on side c.B.Side(u)) as locked without moving
// it: its probability leaves the products and its pins pin the nets on its
// current side. Used for analysis (Figure 1's anchored V2 nodes).
func (c *Calculator) Lock(u int) {
	if c.Locked[u] {
		return
	}
	s := c.B.Side(u)
	c.lockOut(u, s)
	c.clock++
	for _, e := range c.B.H.NetsOf(u) {
		c.touch(e)
		c.lockedPins[s][e]++
	}
}

// MoveLock performs the partitioner's move step: remove u from its side's
// products, move it across the bisection, lock it on the new side, and
// return the immediate (deterministic) gain of the move.
func (c *Calculator) MoveLock(u int) float64 {
	s := c.B.Side(u)
	c.lockOut(u, s)
	imm := c.B.Move(u)
	t := 1 - s
	c.clock++
	for _, e := range c.B.H.NetsOf(u) {
		c.touch(e)
		c.lockedPins[t][e]++
	}
	return imm
}

// lockOut locks u, which sits unlocked on side s, and takes its
// probability out of side s's products: by division, or for a zero factor
// by rebuilding each net with u already locked.
func (c *Calculator) lockOut(u int, s uint8) {
	pu := c.P[u]
	c.Locked[u] = true
	c.P[u] = 0
	for _, e := range c.B.H.NetsOf(u) {
		if pu != 0 {
			c.prod[s][e] /= pu
		} else {
			c.rebuildNet(int(e))
		}
	}
}

// Prod returns the cached product of probabilities of the unlocked pins of
// net e on side s (without the locked-pin zeroing FreeProb applies).
func (c *Calculator) Prod(s uint8, e int) float64 { return c.prod[s][e] }

// LockedPins returns the number of locked pins net e has on side s.
func (c *Calculator) LockedPins(s uint8, e int) int { return int(c.lockedPins[s][e]) }

// FreeProb returns p(n^{s→t}): the probability that net e is freed from
// side s by moving all of its side-s pins across. It is the product of the
// probabilities of the unlocked side-s pins, or 0 if a locked pin holds the
// net on side s. excluding ≥ 0 names a pin to leave out of the product
// (conditioning on that node's own move, Eqn. 3); pass −1 for none.
func (c *Calculator) FreeProb(s uint8, e int, excluding int) float64 {
	if c.lockedPins[s][e] > 0 {
		return 0
	}
	p := c.prod[s][e]
	if excluding >= 0 && !c.Locked[excluding] && c.B.Side(excluding) == s {
		if pe := c.P[excluding]; pe != 0 {
			p /= pe
		} else {
			p = c.exactFreeProbExcluding(s, e, excluding)
		}
	}
	return p
}

// exactFreeProbExcluding recomputes p(n^{s→t}|excluding) from scratch for
// the zero-probability-pin case, where the cached product cannot be
// conditioned by division.
func (c *Calculator) exactFreeProbExcluding(s uint8, e int, excluding int) float64 {
	side := c.B.SideView()
	ex := int32(excluding)
	p := 1.0
	for _, v := range c.B.H.Net(e) {
		if v == ex || c.Locked[v] || side[v] != s {
			continue
		}
		p *= c.P[v]
	}
	return p
}

// NetGain returns g_net(u), node u's gain contribution from net e:
//
//	net in cutset (Eqn. 2/3):  c(e)·[p(n^{s→t}|u) − p(n^{t→s}|u^c)]
//	net uncut on u's side (Eqn. 4): −c(e)·(1 − p(n^{s→t}|u))
//
// The locked-net special cases (Eqns. 5 and 6) are subsumed: a locked pin
// on a side zeroes that side's freeing probability.
func (c *Calculator) NetGain(u, e int) float64 {
	h := c.B.H
	s := c.B.Side(u)
	t := 1 - s
	cost := h.NetCost(e)
	if c.B.PinCount(t, e) > 0 {
		// Net in cutset: moving u helps complete the s→t evacuation and
		// precludes the t→s one.
		return cost * (c.FreeProb(s, e, u) - c.FreeProb(t, e, -1))
	}
	// Net entirely on side s: moving u throws it into the cutset unless all
	// other pins follow.
	return -cost * (1 - c.FreeProb(s, e, u))
}

// Gain returns the total probabilistic gain g(u) = Σ_{e ∋ u} g_e(u) in
// Θ(deg(u)) using the cached products.
//
// The loop is the fusion of NetGain/FreeProb over u's CSR net list with
// every per-net lookup hoisted to a slice local — the single hottest loop
// of PROP (it runs for every node in every refinement sweep and for every
// neighbor refresh after every move). The floating-point operations and
// their order are exactly those of Σ NetGain(u, e), so the fused form is
// bit-identical to the composed one (TestGainMatchesNetGainSum).
func (c *Calculator) Gain(u int) float64 {
	b := c.B
	h := b.H
	side := b.SideView()
	s := side[u]
	t := 1 - s
	prodS, prodT := c.prod[s], c.prod[t]
	lpS, lpT := c.lockedPins[s], c.lockedPins[t]
	pcT := b.PinCountView(t)
	costs := h.NetCosts()
	pu := c.P[u]
	lockedU := c.Locked[u]
	var g float64
	for _, e := range h.NetsOf(u) {
		cost := costs[e]
		// ps = FreeProb(s, e, u): u is on side s, so the exclusion applies
		// whenever u is unlocked.
		var ps float64
		if lpS[e] == 0 {
			ps = prodS[e]
			if !lockedU {
				if pu != 0 {
					ps /= pu
				} else {
					ps = c.exactFreeProbExcluding(s, int(e), u)
				}
			}
		}
		if pcT[e] > 0 {
			// Net in cutset: pt = FreeProb(t, e, -1).
			var pt float64
			if lpT[e] == 0 {
				pt = prodT[e]
			}
			g += cost * (ps - pt)
		} else {
			// Net entirely on side s.
			g += -cost * (1 - ps)
		}
	}
	return g
}
