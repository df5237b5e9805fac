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
//
// On dense graphs (average degree at least termCacheDegree: the coarse
// levels of the multilevel hierarchies) the calculator also caches every
// pin's gain term — Gain's summand for one net — beside the node→nets
// CSR. RefreshTerms recomputes only the terms of nets stamped since a
// node's gain was last computed and CachedGain re-sums them, which
// returns Gain's bits: each term is a function of inputs whose every
// write stamps that net (see RefreshTerms).
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

	// term[i] is the last computed gain term of node u on net
	// NetsOf(u)[i - NetsOfOffset(u)], aligned with the node→nets arena.
	// Only dense graphs keep it (termCacheDegree); nil otherwise.
	term []float64
}

// termCacheDegree is the average degree (pins per node) from which a
// Calculator keeps the per-pin term cache. Coarse hierarchy levels reach
// degrees in the hundreds, where a gain refresh that re-walks every net
// for one changed net is mostly waste; the Table 1 circuits (degree
// 2.3–3.9) and the generated scale graphs (4.1) stay far below it and pay
// nothing. At 8 the 100k scale row's two largest checkpoint levels
// (10–14 pins per node) took the cache too: no faster, and 5% more peak
// RSS for the 8 bytes per pin.
const termCacheDegree = 16

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
	if h := b.H; h.NumPins() >= termCacheDegree*n {
		c.term = make([]float64, h.NumPins())
	}
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
	c.clearLocks()
	c.Rebuild()
}

// clearLocks clears all locks and leaves the products stale: the caller
// must Rebuild before the next gain.
func (c *Calculator) clearLocks() {
	clear(c.Locked)
	clear(c.lockedPins[0])
	clear(c.lockedPins[1])
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
// on a side zeroes that side's freeing probability. The result is rounded
// to float64 explicitly, as gainTerm rounds it.
func (c *Calculator) NetGain(u, e int) float64 {
	h := c.B.H
	s := c.B.Side(u)
	t := 1 - s
	cost := h.NetCost(e)
	if c.B.PinCount(t, e) > 0 {
		// Net in cutset: moving u helps complete the s→t evacuation and
		// precludes the t→s one.
		return float64(cost * (c.FreeProb(s, e, u) - c.FreeProb(t, e, -1)))
	}
	// Net entirely on side s: moving u throws it into the cutset unless all
	// other pins follow.
	return float64(-cost * (1 - c.FreeProb(s, e, u)))
}

// Gain returns the total probabilistic gain g(u) = Σ_{e ∋ u} g_e(u) in
// Θ(deg(u)) using the cached products.
//
// The loop is the fusion of NetGain/FreeProb over u's CSR net list with
// every per-net lookup hoisted by termViews — the single hottest loop
// of PROP (it runs for every node in every refinement sweep and for every
// neighbor refresh after every move). The floating-point operations and
// their order are exactly those of Σ NetGain(u, e), so the fused form is
// bit-identical to the composed one (TestGainMatchesNetGainSum).
func (c *Calculator) Gain(u int) float64 {
	var g float64
	if c.zeroP(u) {
		for _, e := range c.B.H.NetsOf(u) {
			g += c.NetGain(u, int(e))
		}
		return g
	}
	costs, prodS, prodT, lpS, lpT, pcT, div := c.termViews(u)
	for _, e := range c.B.H.NetsOf(u) {
		g += gainTerm(e, costs, prodS, prodT, lpS, lpT, pcT, div)
	}
	return g
}

// TermsCached reports whether c keeps the per-pin term cache behind
// RefreshTerms and CachedGain: whether its graph's average degree is at
// least termCacheDegree.
func (c *Calculator) TermsCached() bool { return c.term != nil }

// RefreshTerms recomputes the cached terms of u's nets stamped after
// clock value at and returns how many it recomputed; at = 0 recomputes
// every term. Call it only when TermsCached. When every term of u was
// current at clock at — the caller read Clock() right after u's previous
// RefreshTerms, or passes 0 — every term of u is current afterwards, so
// CachedGain(u) returns Gain(u) bit for bit. A term reads u's side, P and
// lock and its net's cost, products, locked pins and pin count (plus the
// side-s pins' P, locks and sides when P[u] is 0). Writes to any of those
// stamp the net, except writes to a dead net: the write that kills it is
// stamped before its lock count rises, and from then on its term is
// cost·(0−0) = 0 exactly. u's side changes only by moving u, which locks
// it; an unlocked node's terms are what the cache serves.
func (c *Calculator) RefreshTerms(u int, at uint64) int {
	h := c.B.H
	term := c.term[h.NetsOfOffset(u):]
	zero := c.zeroP(u)
	costs, prodS, prodT, lpS, lpT, pcT, div := c.termViews(u)
	n := 0
	for i, e := range h.NetsOf(u) {
		if c.stamp[e] <= at {
			continue
		}
		if zero {
			term[i] = c.NetGain(u, int(e))
		} else {
			term[i] = gainTerm(e, costs, prodS, prodT, lpS, lpT, pcT, div)
		}
		n++
	}
	return n
}

// CachedGain returns the sum of u's cached terms in CSR order: Gain(u)
// bit for bit once RefreshTerms has made them current. Gain adds the same
// float64 values in the same order from the same zero.
func (c *Calculator) CachedGain(u int) float64 {
	h := c.B.H
	off := h.NetsOfOffset(u)
	var g float64
	for _, t := range c.term[off : off+h.Degree(u)] {
		g += t
	}
	return g
}

// termViews hoists the per-net lookups of node u's gain terms out of the
// net loop: the net costs, both sides' products, both sides' locked-pin
// counts and the other side's pin counts, s being u's side and t the
// other. div is P[u] when u is unlocked and 1 when it is locked, so
// prodS/div is FreeProb(s, e, u) in both cases (x/1 is x exactly). An
// unlocked u with P[u] = 0 cannot be divided out (zeroP); Gain and
// RefreshTerms send it to NetGain, whose FreeProb recomputes the product
// without u. The views come back as separate values, not a struct, so
// that the loops keep them in registers.
func (c *Calculator) termViews(u int) (costs, prodS, prodT []float64, lpS, lpT, pcT []int32, div float64) {
	s := c.B.Side(u)
	t := 1 - s
	div = 1
	if !c.Locked[u] {
		div = c.P[u]
	}
	return c.B.H.NetCosts(), c.prod[s], c.prod[t], c.lockedPins[s], c.lockedPins[t], c.B.PinCountView(t), div
}

// zeroP reports whether u is unlocked with probability 0, the case
// termViews cannot serve.
func (c *Calculator) zeroP(u int) bool { return !c.Locked[u] && c.P[u] == 0 }

// gainTerm returns NetGain(u, e) from u's termViews. The explicit float64
// conversions round each product before the caller adds it, so no
// platform may fuse the multiply into that addition: Gain and the cached
// sum must add identical values.
func gainTerm(e int32, costs, prodS, prodT []float64, lpS, lpT, pcT []int32, div float64) float64 {
	var ps float64 // FreeProb(s, e, u)
	if lpS[e] == 0 {
		ps = prodS[e] / div
	}
	if pcT[e] > 0 {
		// Net in cutset: pt = FreeProb(t, e, -1).
		var pt float64
		if lpT[e] == 0 {
			pt = prodT[e]
		}
		return float64(costs[e] * (ps - pt))
	}
	// Net entirely on side s.
	return float64(-costs[e] * (1 - ps))
}
