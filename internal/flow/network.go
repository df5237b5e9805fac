package flow

import (
	"math"

	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// infCap is the "uncuttable" arc capacity. Every source→sink path crosses
// a bridge arc, so the max flow is bounded by the bridge capacity sum and
// infinite arcs never saturate.
const infCap = int64(math.MaxInt64 / 8)

// costScale is the fixed-point multiplier for fractional net costs.
const costScale = float64(1 << 20)

// modeledNet is one hyperedge of the corridor hypergraph after Lawler
// expansion: vertices in/out joined by a bridge arc of capacity = net cost;
// each pin p gets infinite arcs p→in and out→p, so the bridge is saturated
// exactly when the net has pins on both sides of the s-t cut.
type modeledNet struct {
	e          int32
	in, out    int32
	ext0, ext1 bool // pins in the frozen side-0 / side-1 exterior
}

// network is the directed flow network of one corridor: vertex 0 is the
// super-source (side-0 exterior), vertex 1 the super-sink (side-1
// exterior), vertices 2..2+|corridor| the corridor nodes in corridor
// order, then two vertices per modeled net. Capacities are int64 at a
// fixed-point scale (1 when every modeled cost is integral). Vertex u's
// arcs are arcs[off[u]:off[u+1]], in one flat array.
type network struct {
	off   []int32
	arcs  []arc
	nets  []modeledNet
	scale float64
	nodeV int // corridor node i is vertex nodeV + i (== 2)

	// Build scratch, kept with the buffers above across the rounds of one
	// Refine call.
	at   []int32 // per vertex: next arc slot to fill
	seen []bool  // per net: met while scanning the corridor
}

type arc struct {
	to  int32
	rev int32 // index of the reverse arc in arcs
	cap int64
}

// numVertices returns the network's vertex count.
func (g *network) numVertices() int { return len(g.off) - 1 }

// out returns vertex u's arcs.
func (g *network) out(u int32) []arc { return g.arcs[g.off[u]:g.off[u+1]] }

// addArc adds the arc u→v of capacity c and its zero-capacity reverse.
// The counting pass only tallies both ends; the filling pass puts each arc
// in the next free slot of its vertex, so every vertex lists its arcs in
// the order they were added.
func (g *network) addArc(fill bool, u, v int32, c int64) {
	if !fill {
		g.off[u+1]++
		g.off[v+1]++
		return
	}
	i, j := g.at[u], g.at[v]
	g.at[u], g.at[v] = i+1, j+1
	g.arcs[i] = arc{to: v, rev: j, cap: c}
	g.arcs[j] = arc{to: u, rev: i, cap: 0}
}

// build expands the corridor hypergraph into g, reusing g's buffers.
// Nets are discovered by scanning corridor nodes in order and their nets in
// CSR order, so vertex numbering and arc order are deterministic. Nets with
// pins on both exteriors are cut under every corridor assignment and are
// left out as a constant; nets without corridor pins are untouchable and
// never reached.
func (g *network) build(b *partition.Bisection, c corridor) {
	h := b.H
	g.scale, g.nodeV = 1, 2
	g.nets = g.nets[:0]
	if len(g.seen) < h.NumNets() {
		g.seen = make([]bool, h.NumNets())
	}
	integral := true
	for _, u := range c.nodes {
		for _, e := range h.NetsOf(int(u)) {
			if g.seen[e] {
				continue
			}
			g.seen[e] = true
			var ext0, ext1 bool
			for _, v := range h.Net(int(e)) {
				if c.pos[v] >= 0 {
					continue
				}
				if b.Side(int(v)) == 0 {
					ext0 = true
				} else {
					ext1 = true
				}
			}
			if ext0 && ext1 {
				continue // permanently cut: constant term, not modeled
			}
			g.nets = append(g.nets, modeledNet{e: e, ext0: ext0, ext1: ext1})
			if cost := h.NetCost(int(e)); cost != math.Trunc(cost) {
				integral = false
			}
		}
	}
	for _, u := range c.nodes {
		for _, e := range h.NetsOf(int(u)) {
			g.seen[e] = false
		}
	}
	if !integral {
		g.scale = costScale
	}
	base := int32(g.nodeV + len(c.nodes))
	for j := range g.nets {
		g.nets[j].in = base + int32(2*j)
		g.nets[j].out = base + int32(2*j) + 1
	}
	nv := int(base) + 2*len(g.nets)
	g.off = resize(g.off, nv+1)
	clear(g.off)
	g.addArcs(h, c, false)
	for u := 0; u < nv; u++ {
		g.off[u+1] += g.off[u]
	}
	g.arcs = resize(g.arcs, int(g.off[nv]))
	g.at = resize(g.at, nv)
	copy(g.at, g.off)
	g.addArcs(h, c, true)
}

// addArcs adds every arc of the network in one fixed order: per modeled
// net its bridge, then its exterior arcs, then its corridor pins' arcs.
func (g *network) addArcs(h *hypergraph.Hypergraph, c corridor, fill bool) {
	for j := range g.nets {
		m := &g.nets[j]
		capE := int64(h.NetCost(int(m.e))*g.scale + 0.5)
		g.addArc(fill, m.in, m.out, capE)
		if m.ext0 {
			g.addArc(fill, 0, m.in, infCap)
		}
		if m.ext1 {
			g.addArc(fill, m.out, 1, infCap)
		}
		for _, v := range h.Net(int(m.e)) {
			if i := c.pos[v]; i >= 0 {
				g.addArc(fill, int32(g.nodeV)+i, m.in, infCap)
				g.addArc(fill, m.out, int32(g.nodeV)+i, infCap)
			}
		}
	}
}

// resize returns s with length n, reallocating only past its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
