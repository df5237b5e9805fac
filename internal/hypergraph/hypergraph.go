// Package hypergraph provides the circuit-netlist substrate used by every
// partitioner in this repository.
//
// A circuit C is modeled as a hypergraph G = (V, E): V is the set of nodes
// (cells/components) and E the set of hyperedges (nets). Each net connects
// two or more nodes; each node may carry an integer weight (cell size) and
// each net a float cost (unit for min-cut, arbitrary for timing-driven
// partitioning). The representation is the flat dual CSR adjacency: one
// contiguous pin arena indexed by net offsets and one contiguous net arena
// indexed by node offsets, exactly the structure whose total size m = pn =
// qe drives the Θ(m) space and Θ(m log n) time bounds in §3.5 of the PROP
// paper — stored so that every Net/NetsOf access is a subslice of one
// arena rather than a pointer chase.
package hypergraph

import (
	"fmt"
	"math"
)

// Hypergraph is an immutable netlist in dual CSR form. Construct one with a
// Builder or a reader from package hgio. Node and net IDs are dense
// integers in [0, NumNodes) and [0, NumNets); pins are stored as int32
// (the Builder rejects inputs beyond int32 range) so the arenas stay
// compact and cache-dense.
type Hypergraph struct {
	nodeNames []string
	netNames  []string
	// pinArr/netOff is the net→pins CSR: net e's pins are
	// pinArr[netOff[e]:netOff[e+1]], sorted and duplicate-free.
	pinArr []int32
	netOff []int32
	// netArr/nodeOff is the dual node→nets CSR: node u's nets are
	// netArr[nodeOff[u]:nodeOff[u+1]], sorted and duplicate-free.
	netArr     []int32
	nodeOff    []int32
	netCost    []float64
	nodeWeight []int64
	unitCost   bool
}

// NumNodes returns |V|.
func (h *Hypergraph) NumNodes() int { return len(h.nodeWeight) }

// NumNets returns |E|.
func (h *Hypergraph) NumNets() int { return len(h.netCost) }

// NumPins returns the total pin count m = Σ|e|.
func (h *Hypergraph) NumPins() int { return len(h.pinArr) }

// Net returns the node IDs connected by net e as a subslice of the shared
// pin arena. The caller must not modify the returned slice.
func (h *Hypergraph) Net(e int) []int32 { return h.pinArr[h.netOff[e]:h.netOff[e+1]] }

// NetsOf returns the net IDs node u is connected to as a subslice of the
// shared net arena. The caller must not modify the returned slice.
func (h *Hypergraph) NetsOf(u int) []int32 { return h.netArr[h.nodeOff[u]:h.nodeOff[u+1]] }

// Degree returns the number of pins on node u (p in the paper's notation).
func (h *Hypergraph) Degree(u int) int { return int(h.nodeOff[u+1] - h.nodeOff[u]) }

// NetSize returns the number of pins on net e (q in the paper's notation).
func (h *Hypergraph) NetSize(e int) int { return int(h.netOff[e+1] - h.netOff[e]) }

// NetCost returns the cost c(e) of net e.
func (h *Hypergraph) NetCost(e int) float64 { return h.netCost[e] }

// NetCosts returns the per-net cost vector itself (not a copy) so hot
// loops can hoist it into a local; the caller must not modify it.
func (h *Hypergraph) NetCosts() []float64 { return h.netCost }

// UnitCost reports whether every net has cost exactly 1. FM's bucket data
// structure is only valid in that case (paper §1, §4).
func (h *Hypergraph) UnitCost() bool { return h.unitCost }

// NodeWeight returns the size/weight of node u.
func (h *Hypergraph) NodeWeight(u int) int64 { return h.nodeWeight[u] }

// TotalNodeWeight returns Σ NodeWeight(u).
func (h *Hypergraph) TotalNodeWeight() int64 {
	var t int64
	for _, w := range h.nodeWeight {
		t += w
	}
	return t
}

// ArenaBytes returns the resident size of the dual-CSR arenas plus the
// per-element cost and weight vectors: 4 bytes per entry of
// pinArr/netOff/netArr/nodeOff, 8 per net cost and node weight. Symbolic
// names are excluded — generated circuits carry none, and the scale
// benchmark's "peak RSS ≤ 2× arena footprint" gate is defined against
// exactly this number.
func (h *Hypergraph) ArenaBytes() int64 {
	return 4*int64(len(h.pinArr)+len(h.netOff)+len(h.netArr)+len(h.nodeOff)) +
		8*int64(len(h.netCost)+len(h.nodeWeight))
}

// NodeName returns the symbolic name of node u ("" if unnamed).
func (h *Hypergraph) NodeName(u int) string {
	if u < len(h.nodeNames) {
		return h.nodeNames[u]
	}
	return ""
}

// NetName returns the symbolic name of net e ("" if unnamed).
func (h *Hypergraph) NetName(e int) string {
	if e < len(h.netNames) {
		return h.netNames[e]
	}
	return ""
}

// NetInts appends net e's pins to dst as ints and returns the extended
// slice — the conversion helper for callers that need machine-word pin IDs
// (variadic builder calls, JSON encoding).
func (h *Hypergraph) NetInts(e int, dst []int) []int {
	for _, u := range h.Net(e) {
		dst = append(dst, int(u))
	}
	return dst
}

// Neighbors appends to dst the distinct neighbors of u (nodes sharing a net
// with u, excluding u itself) and returns the extended slice. scratch must
// have length ≥ NumNodes and be all-false; it is restored before returning.
// This is the d = p(q−1) quantity from the paper amortized per node.
func (h *Hypergraph) Neighbors(u int, dst []int32, scratch []bool) []int32 {
	u32 := int32(u)
	for _, e := range h.NetsOf(u) {
		for _, v := range h.Net(int(e)) {
			if v != u32 && !scratch[v] {
				scratch[v] = true
				dst = append(dst, v)
			}
		}
	}
	for _, v := range dst {
		scratch[v] = false
	}
	return dst
}

// Validate checks structural invariants: dual adjacency consistency, sorted
// duplicate-free pin lists, finite positive net costs, positive node
// weights, monotone CSR offsets and pin count bookkeeping. It returns the
// first violation found.
func (h *Hypergraph) Validate() error {
	if len(h.netOff) != h.NumNets()+1 || len(h.nodeOff) != h.NumNodes()+1 {
		return fmt.Errorf("hypergraph: offset arrays sized (%d,%d) for %d nets, %d nodes",
			len(h.netOff), len(h.nodeOff), h.NumNets(), h.NumNodes())
	}
	if h.netOff[0] != 0 || h.nodeOff[0] != 0 ||
		int(h.netOff[h.NumNets()]) != len(h.pinArr) || int(h.nodeOff[h.NumNodes()]) != len(h.netArr) {
		return fmt.Errorf("hypergraph: CSR offsets do not span the arenas")
	}
	if len(h.pinArr) != len(h.netArr) {
		return fmt.Errorf("hypergraph: pin arena %d entries, net arena %d", len(h.pinArr), len(h.netArr))
	}
	for e := 0; e < h.NumNets(); e++ {
		if h.netOff[e] > h.netOff[e+1] {
			return fmt.Errorf("hypergraph: net offsets decrease at %d", e)
		}
		ps := h.Net(e)
		if len(ps) < 2 {
			return fmt.Errorf("hypergraph: net %d has %d pins, want ≥ 2", e, len(ps))
		}
		if err := checkNetCost(e, h.NetName(e), h.netCost[e]); err != nil {
			return err
		}
		prev := int32(-1)
		for _, u := range ps {
			if u < 0 || int(u) >= h.NumNodes() {
				return fmt.Errorf("hypergraph: net %d pin %d out of range", e, u)
			}
			if u <= prev {
				return fmt.Errorf("hypergraph: net %d pins not sorted/unique at node %d", e, u)
			}
			prev = u
			if !containsSorted(h.NetsOf(int(u)), int32(e)) {
				return fmt.Errorf("hypergraph: node %d missing net %d in its net list", u, e)
			}
		}
	}
	for u := 0; u < h.NumNodes(); u++ {
		if h.nodeOff[u] > h.nodeOff[u+1] {
			return fmt.Errorf("hypergraph: node offsets decrease at %d", u)
		}
		if h.nodeWeight[u] <= 0 {
			return fmt.Errorf("hypergraph: node %d has non-positive weight %d", u, h.nodeWeight[u])
		}
		prev := int32(-1)
		for _, e := range h.NetsOf(u) {
			if e < 0 || int(e) >= h.NumNets() {
				return fmt.Errorf("hypergraph: node %d net %d out of range", u, e)
			}
			if e <= prev {
				return fmt.Errorf("hypergraph: node %d nets not sorted/unique at net %d", u, e)
			}
			prev = e
			if !containsSorted(h.Net(int(e)), int32(u)) {
				return fmt.Errorf("hypergraph: net %d missing node %d in its pin list", e, u)
			}
		}
	}
	return nil
}

// Clone returns a deep copy; the copy's net costs and names may be mutated
// through WithNetCosts without affecting the original.
func (h *Hypergraph) Clone() *Hypergraph {
	return &Hypergraph{
		nodeNames:  append([]string(nil), h.nodeNames...),
		netNames:   append([]string(nil), h.netNames...),
		pinArr:     append([]int32(nil), h.pinArr...),
		netOff:     append([]int32(nil), h.netOff...),
		netArr:     append([]int32(nil), h.netArr...),
		nodeOff:    append([]int32(nil), h.nodeOff...),
		netCost:    append([]float64(nil), h.netCost...),
		nodeWeight: append([]int64(nil), h.nodeWeight...),
		unitCost:   h.unitCost,
	}
}

// WithNetCosts returns a shallow structural copy of h whose net costs are
// replaced by costs (len must equal NumNets). Used by the timing-driven
// example to re-weight critical nets without rebuilding adjacency.
func (h *Hypergraph) WithNetCosts(costs []float64) (*Hypergraph, error) {
	if len(costs) != h.NumNets() {
		return nil, fmt.Errorf("hypergraph: WithNetCosts got %d costs for %d nets", len(costs), h.NumNets())
	}
	unit := true
	for e, c := range costs {
		if err := checkNetCost(e, h.NetName(e), c); err != nil {
			return nil, err
		}
		if c != 1 {
			unit = false
		}
	}
	c := *h
	c.netCost = append([]float64(nil), costs...)
	c.unitCost = unit
	return &c, nil
}

// checkNetCost requires a net cost that is finite and > 0. A plain
// `cost <= 0` test lets NaN and +Inf through, and either one turns gains
// and cuts into NaN (Inf − Inf in an incremental cut). The error names
// net e by name when it has one.
func checkNetCost(e int, name string, cost float64) error {
	if cost > 0 && !math.IsInf(cost, 1) {
		return nil
	}
	if name != "" {
		return fmt.Errorf("hypergraph: net %q cost %g must be finite and > 0", name, cost)
	}
	return fmt.Errorf("hypergraph: net %d cost %g must be finite and > 0", e, cost)
}

// maxIndex is the densest ID the int32 arenas can address.
const maxIndex = math.MaxInt32

func containsSorted(s []int32, x int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}
