package hypergraph

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file implements the n-level contraction hierarchy: a Contracted
// view that collapses one vertex pair at a time directly on the CSR
// arenas, recording a Memento per contraction so that undo is O(degree(v))
// and a full unwind restores the arenas bit-for-bit — including per-net
// pin order. The design follows the n-level scheme of Henne et al.
// (n-Level Hypergraph Partitioning): no coarse copies, a LIFO memento
// stack, and lazy uncontraction that hands just-revived vertices to a
// localized refiner.
//
// Per net e only a prefix of its pin region is "active":
// pins[netOff[e] : netOff[e]+netSize[e]]. Contracting v into u visits each
// net of v once:
//
//   case A — u already pins e: v's pin is swap-removed (its slot swapped
//     with the last active pin, active size decremented), which parks v
//     just past the active prefix. The pre-swap slot is pushed on the
//     entry stack so the swap can be reversed exactly.
//   case B — u does not pin e: v's slot is overwritten with u in place,
//     and if the net is still live (≥ 2 active pins) u adopts e into its
//     net list. Nothing is pushed: at undo time the case is recognized by
//     the *absence* of v parked at pins[netOff[e]+netSize[e]], and
//     reversed by scanning the active prefix for u.
//
// Dead nets (active size 1) get the pin handoff but not the adoption.
// They carry no gain and no cut, and by LIFO order a dead net cannot
// regrow before the contraction that handed it off is popped — the pops
// that would regrow it happened earlier in the stack — so the handoff is
// fully reversible without u ever listing the net. Skipping them is what
// keeps the overflow arena O(pins): with adoption, every net a cluster
// ever swallowed would be re-copied into each successive representative's
// list, O(nets · depth) entries on a deep hierarchy.
//
// Because undo is strictly LIFO, at the moment Memento{u,v} is popped the
// arenas are byte-identical to the instant just after its Contract call —
// later contractions park their dead pins at lower slots and have already
// been unwound — so v is always the pin parked at the active boundary of
// its case-A nets, and u always occupies v's exact pre-contraction slot in
// its case-B nets. A Memento is therefore just the (u, v) pair: the entry
// count is re-derived by a parked-v scan, and the entry stack offset is
// implied by the stack discipline.
//
// Node→net lists start as zero-copy windows into the immutable base
// netArr. A case-B adoption relocates the node's list into a growable
// overflow arena (power-of-two size classes with per-class free lists, so
// abandoned regions are recycled rather than leaked); uncontraction only
// ever truncates the list length, which is correct because adopted nets
// sit at the tail in adoption order. When a truncation brings a list back
// to its base length its content is the base list again (adoptions append,
// truncations drop the tail), so the span snaps back to the zero-copy base
// window and the overflow region returns to its free list — a full unwind
// hands every region back, which is what lets iterated cycles reuse one
// high-water overflow arena instead of growing it per cycle.

// Memento records one contraction: v was merged into u. Undo state lives
// in the arenas and the entry stack, keyed by stack position, so the
// record itself is two IDs — 8 bytes per level, the whole reason a
// million-level hierarchy fits next to the graph it contracts.
type Memento struct {
	U, V int32
}

// span is a node's net-list descriptor: off ≥ 0 points into the base
// netArr (zero-copy, immutable), off < 0 points into the overflow arena
// at ^off (relocated by adoption, append-at-tail).
type span struct {
	off, len int32
}

// maxContractNetSize bounds net sizes in a Contracted view: case-A entries
// store the pre-swap slot as a uint16 offset relative to the net's region
// start. Net sizes never grow under contraction, so checking the base
// graph once at construction covers the whole hierarchy.
const maxContractNetSize = 1 << 16

// Contracted is a mutable n-level view over a Hypergraph. It is not safe
// for concurrent use. With NewContractedInPlace the view mutates the base
// graph's own pin and weight arenas (restored exactly by a full unwind);
// otherwise those two arrays are copied up front and the base graph stays
// untouched throughout.
type Contracted struct {
	h       *Hypergraph
	inPlace bool

	pins    []int32 // h.pinArr or a copy
	weight  []int64 // h.nodeWeight or a copy
	netSize []int32 // active pin count per net
	spans   []span  // per-node net-list view
	alive   []bool
	nAlive  int

	overflow []int32   // relocated net lists, power-of-two regions
	free     [][]int32 // free regions per size class (offsets)
	regClass []uint8   // per-node region size class, valid when span.off < 0

	mementos []Memento
	entries  []uint16 // case-A pre-swap slots, net-relative

	maxNodeWeight int64 // max weight in the *base* graph (balance slack)
	minNodeWeight int64 // min weight in the base graph (a floor at every level)
}

// NewContracted builds a contraction view over h using copied pin/weight
// arenas, leaving h untouched.
func NewContracted(h *Hypergraph) (*Contracted, error) {
	return newContracted(h, false)
}

// NewContractedInPlace builds a contraction view that mutates h's own pin
// and weight arenas. A full unwind (Uncontract until Depth() == 0)
// restores h exactly; until then h must not be read by anyone else, and
// abandoning the view mid-hierarchy leaves h corrupted. This is the
// million-node mode: it avoids a pins-sized and a weights-sized copy.
func NewContractedInPlace(h *Hypergraph) (*Contracted, error) {
	return newContracted(h, true)
}

func newContracted(h *Hypergraph, inPlace bool) (*Contracted, error) {
	n, m := h.NumNodes(), h.NumNets()
	for e := 0; e < m; e++ {
		if h.NetSize(e) > maxContractNetSize {
			return nil, fmt.Errorf("hypergraph: net %d has %d pins, above the contraction limit %d",
				e, h.NetSize(e), maxContractNetSize)
		}
	}
	c := &Contracted{h: h, inPlace: inPlace, nAlive: n}
	if inPlace {
		c.pins = h.pinArr
		c.weight = h.nodeWeight
	} else {
		// make + copy, not slices.Clone: ArenaBytes reads cap(), which
		// Clone would round up to an allocation size class.
		c.pins = make([]int32, len(h.pinArr))
		copy(c.pins, h.pinArr)
		c.weight = make([]int64, len(h.nodeWeight))
		copy(c.weight, h.nodeWeight)
	}
	c.netSize = make([]int32, m)
	for e := 0; e < m; e++ {
		c.netSize[e] = int32(h.NetSize(e))
	}
	c.spans = make([]span, n)
	for u := 0; u < n; u++ {
		c.spans[u] = span{off: h.nodeOff[u], len: h.nodeOff[u+1] - h.nodeOff[u]}
	}
	c.alive = make([]bool, n)
	for u := range c.alive {
		c.alive[u] = true
	}
	for i, w := range h.nodeWeight {
		if w > c.maxNodeWeight {
			c.maxNodeWeight = w
		}
		if i == 0 || w < c.minNodeWeight {
			c.minNodeWeight = w
		}
	}
	// Both stacks have hard bounds — one memento per dead node, one entry
	// per removed pin — so reserving them up front turns what would be
	// append-doubling (a transient extra copy of a multi-megabyte array,
	// visible in peak RSS) into a single exact allocation.
	c.mementos = slices.Grow([]Memento(nil), n)
	c.entries = slices.Grow([]uint16(nil), len(h.pinArr))
	c.regClass = make([]uint8, n)
	return c, nil
}

// Base returns the underlying hypergraph.
func (c *Contracted) Base() *Hypergraph { return c.h }

// NumNodes returns the base node count (IDs stay dense; dead nodes keep
// their ID so per-node arrays index directly).
func (c *Contracted) NumNodes() int { return len(c.spans) }

// NumNets returns the base net count.
func (c *Contracted) NumNets() int { return len(c.netSize) }

// AliveCount returns the number of uncontracted nodes.
func (c *Contracted) AliveCount() int { return c.nAlive }

// Alive reports whether node u is currently uncontracted.
func (c *Contracted) Alive(u int) bool { return c.alive[u] }

// Depth returns the memento stack height (number of contractions applied).
func (c *Contracted) Depth() int { return len(c.mementos) }

// Net returns net e's active pins. The slice aliases the pin arena and is
// invalidated by Contract/Uncontract; callers must not modify it.
func (c *Contracted) Net(e int) []int32 {
	off := c.h.netOff[e]
	return c.pins[off : off+c.netSize[e]]
}

// NetSize returns net e's active pin count. Nets contracted down to one
// pin are "dead": they cannot be cut and carry no gain.
func (c *Contracted) NetSize(e int) int { return int(c.netSize[e]) }

// NetCost returns the cost of net e (costs are level-invariant).
func (c *Contracted) NetCost(e int) float64 { return c.h.netCost[e] }

// NodeWeight returns the current (merged) weight of node u.
func (c *Contracted) NodeWeight(u int) int64 { return c.weight[u] }

// MaxBaseNodeWeight returns the largest node weight in the base graph,
// the balance slack constant used by localized refinement.
func (c *Contracted) MaxBaseNodeWeight() int64 { return c.maxNodeWeight }

// MinBaseNodeWeight returns the smallest node weight in the base graph.
// A node's weight at any level is a sum of base weights, so no node alive
// now or revived later weighs less.
func (c *Contracted) MinBaseNodeWeight() int64 { return c.minNodeWeight }

// NetsOf returns the nets of node u. For an alive u this is the set of
// nets holding u as an active pin, except that dead (size-1) nets handed
// to u by contraction are omitted — the list may still include dead nets
// u pinned natively. Every consumer filters on NetSize ≥ 2, so the
// omission is invisible outside this file. For a dead u the list is
// frozen at the value it had at contraction time. The slice is
// invalidated by Contract/Uncontract; callers must not modify it.
func (c *Contracted) NetsOf(u int) []int32 {
	s := c.spans[u]
	if s.off >= 0 {
		return c.h.netArr[s.off : s.off+s.len]
	}
	off := ^s.off
	return c.overflow[off : off+s.len]
}

// regionClass returns the power-of-two size class holding a list of
// length n: regions have size 1<<class ≥ n.
func regionClass(n int32) int {
	if n <= 1 {
		return 0
	}
	return bits.Len32(uint32(n - 1))
}

// allocRegion returns the offset of a free overflow region of size
// 1<<class, recycling an abandoned region of that class when one exists.
func (c *Contracted) allocRegion(class int) int32 {
	for len(c.free) <= class {
		c.free = append(c.free, nil)
	}
	if fl := c.free[class]; len(fl) > 0 {
		off := fl[len(fl)-1]
		c.free[class] = fl[:len(fl)-1]
		return off
	}
	off := int32(len(c.overflow))
	c.overflow = append(c.overflow, make([]int32, 1<<class)...)
	return off
}

// adopt appends net e to u's net list, relocating the list into (or
// within) the overflow arena when it is full. Relocation copies the
// prefix, so truncating the length during uncontraction restores the
// previous list exactly regardless of where it now lives.
func (c *Contracted) adopt(u, e int32) {
	s := c.spans[u]
	if s.off >= 0 {
		class := regionClass(s.len + 1)
		off := c.allocRegion(class)
		copy(c.overflow[off:], c.h.netArr[s.off:s.off+s.len])
		c.overflow[off+s.len] = e
		c.spans[u] = span{off: ^off, len: s.len + 1}
		c.regClass[u] = uint8(class)
		return
	}
	off := ^s.off
	if oldClass, newClass := regionClass(s.len), regionClass(s.len+1); newClass > oldClass {
		noff := c.allocRegion(newClass)
		copy(c.overflow[noff:], c.overflow[off:off+s.len])
		c.free[oldClass] = append(c.free[oldClass], off)
		off = noff
		c.regClass[u] = uint8(newClass)
	}
	c.overflow[off+s.len] = e
	c.spans[u] = span{off: ^off, len: s.len + 1}
}

// Contract merges node v into node u: every net of v either drops v from
// its active prefix (if u already pins it) or has v's pin rewritten to u
// (with u adopting the net). u absorbs v's weight; v dies with its net
// list frozen. Cost is O(Σ active sizes of v's nets). Both nodes must be
// alive and distinct.
func (c *Contracted) Contract(u, v int32) {
	if u == v || !c.alive[u] || !c.alive[v] {
		panic(fmt.Sprintf("hypergraph: Contract(%d, %d) on dead or identical nodes", u, v))
	}
	for _, e := range c.NetsOf(int(v)) {
		off := c.h.netOff[e]
		size := c.netSize[e]
		ps := c.pins[off : off+size]
		vi, hasU := int32(-1), false
		for i, p := range ps {
			if p == v {
				vi = int32(i)
			} else if p == u {
				hasU = true
			}
		}
		if vi < 0 {
			panic(fmt.Sprintf("hypergraph: net %d lost pin %d", e, v))
		}
		if hasU {
			// Case A: swap-remove v, parking it at the new active
			// boundary; remember the slot for the exact re-swap.
			last := size - 1
			ps[vi], ps[last] = ps[last], ps[vi]
			c.netSize[e] = last
			c.entries = append(c.entries, uint16(vi))
		} else {
			// Case B: u takes over v's slot, and the net if it is
			// still live. Dead nets are handed off without adoption —
			// see the file comment for why LIFO makes that reversible.
			ps[vi] = u
			if size >= 2 {
				c.adopt(u, e)
			}
		}
	}
	c.weight[u] += c.weight[v]
	c.alive[v] = false
	c.nAlive--
	c.mementos = append(c.mementos, Memento{U: u, V: v})
}

// Uncontract pops the top memento, reviving v next to u and restoring the
// arenas to their exact state before the matching Contract call. Nets
// where v's pin re-enters the active prefix (case A — the net's active
// size grows by one) are appended to caseA and returned: those are the
// nets whose pin counts a partition tracker must adjust; case-B nets swap
// pin identity u→v only and are side-neutral when v inherits u's side.
// Cost is O(Σ active sizes of v's nets).
func (c *Contracted) Uncontract(caseA []int32) (Memento, []int32) {
	top := len(c.mementos) - 1
	if top < 0 {
		panic("hypergraph: Uncontract on an empty memento stack")
	}
	m := c.mementos[top]
	c.mementos = c.mementos[:top]
	u, v := m.U, m.V
	vNets := c.NetsOf(int(v))

	// Pass 1: count case-A nets by the parked-v check — v sits exactly at
	// the active boundary of the nets it was swap-removed from (LIFO
	// guarantees no later park is still in the way).
	// Case-B nets were adopted by u only if live at contraction time, and
	// LIFO means the active size now equals the size back then — so nB
	// counts non-parked nets of size ≥ 2, mirroring Contract's adoption
	// rule exactly.
	nA := 0
	var nB int32
	for _, e := range vNets {
		bound := c.h.netOff[e] + c.netSize[e]
		if bound < c.h.netOff[e+1] && c.pins[bound] == v {
			nA++
		} else if c.netSize[e] >= 2 {
			nB++
		}
	}
	entOff := len(c.entries) - nA

	// Pass 2: reverse each net, consuming the stored slots in push order.
	k := 0
	for _, e := range vNets {
		off := c.h.netOff[e]
		bound := off + c.netSize[e]
		if bound < c.h.netOff[e+1] && c.pins[bound] == v {
			// Case A: regrow the prefix and reverse the swap.
			size := c.netSize[e] + 1
			c.netSize[e] = size
			slot := off + int32(c.entries[entOff+k])
			k++
			c.pins[slot], c.pins[bound] = c.pins[bound], c.pins[slot]
			caseA = append(caseA, e)
		} else {
			// Case B: u occupies v's old slot; give it back.
			size := c.netSize[e]
			ps := c.pins[off : off+size]
			restored := false
			for i, p := range ps {
				if p == u {
					ps[i] = v
					restored = true
					break
				}
			}
			if !restored {
				panic(fmt.Sprintf("hypergraph: net %d lost pin %d during uncontract", e, u))
			}
		}
	}
	c.entries = c.entries[:entOff]

	// Adopted (case-B) nets are the tail of u's list, in adoption order;
	// dropping them restores the list u had before this contraction. A
	// list back at base length is the base list again (adoptions only
	// append to a copied prefix), so snap to the zero-copy base window
	// and recycle the overflow region.
	c.spans[u].len -= nB
	if s := c.spans[u]; s.off < 0 {
		if base := c.h.nodeOff[u+1] - c.h.nodeOff[u]; s.len == base {
			c.free[c.regClass[u]] = append(c.free[c.regClass[u]], ^s.off)
			c.spans[u] = span{off: c.h.nodeOff[u], len: base}
		}
	}
	c.weight[u] -= c.weight[v]
	c.alive[v] = true
	c.nAlive++
	return m, caseA
}

// CoarseGraph materializes the current alive subgraph as a standalone
// Hypergraph for the initial-partition stage: alive nodes are renumbered
// densely in increasing base-ID order, and every active net with ≥ 2 pins
// is emitted with its cost. It returns the coarse graph and the alive
// base IDs in compact order (coarse ID i ↔ base ID alive[i]).
func (c *Contracted) CoarseGraph() (*Hypergraph, []int32, error) {
	aliveIDs := make([]int32, 0, c.nAlive)
	compact := make([]int32, len(c.spans))
	for u := range c.spans {
		if c.alive[u] {
			compact[u] = int32(len(aliveIDs))
			aliveIDs = append(aliveIDs, int32(u))
		}
	}
	b := NewBuilder()
	pinTotal := 0
	for e := range c.netSize {
		if c.netSize[e] >= 2 {
			pinTotal += int(c.netSize[e])
		}
	}
	b.Reserve(len(aliveIDs), len(c.netSize), pinTotal)
	for _, u := range aliveIDs {
		b.AddNode("", c.weight[u])
	}
	var scratch []int32
	for e := range c.netSize {
		if c.netSize[e] < 2 {
			continue
		}
		scratch = scratch[:0]
		for _, p := range c.Net(e) {
			scratch = append(scratch, compact[p])
		}
		if err := b.AddNetInt32("", c.h.netCost[e], scratch); err != nil {
			return nil, nil, err
		}
	}
	cg, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return cg, aliveIDs, nil
}

// ArenaBytes returns the view's current CSR-arena footprint in bytes:
// the pin/weight copies (zero in in-place mode), the active-size and
// span tables, liveness and region-class bytes, the overflow arena and
// its free lists, and the two undo stacks at capacity. Together with the
// base graph's own arenas this is the memory an n-level hierarchy holds
// by construction — the denominator of the scale study's RSS gate.
func (c *Contracted) ArenaBytes() int64 {
	b := int64(0)
	if !c.inPlace {
		b += int64(cap(c.pins))*4 + int64(cap(c.weight))*8
	}
	b += int64(cap(c.netSize))*4 + int64(cap(c.spans))*8
	b += int64(cap(c.alive)) + int64(cap(c.regClass))
	b += int64(cap(c.overflow)) * 4
	for _, fl := range c.free {
		b += int64(cap(fl)) * 4
	}
	b += int64(cap(c.mementos))*8 + int64(cap(c.entries))*2
	return b
}
