package hypergraph

import (
	"fmt"
	"slices"
)

// Builder assembles a Hypergraph incrementally. Nodes are created either
// explicitly with AddNode or implicitly by referencing an ID ≥ current node
// count in AddNet (implicit nodes get weight 1 and no name).
//
// Pins are accumulated in one flat int32 arena (not a slice per net), so a
// Builder that was told the final size up front with Reserve performs no
// per-net allocations and Build hands the pin arena to the Hypergraph
// without copying — the million-net path allocates O(1) slices total.
//
// Single-pin nets (after duplicate-pin handling) are dropped silently: they
// can never be cut, which matches how partitioning benchmarks are prepared.
type Builder struct {
	// Name slices are materialized lazily: an all-unnamed netlist (every
	// generated circuit) keeps both nil, which at a million nodes avoids
	// 16 bytes of string header per element for names that are all "".
	// nodeWeight/netCost are the authoritative node/net counters.
	nodeNames  []string
	nodeWeight []int64
	netNames   []string
	netCost    []float64
	// flatPins/netOff is the net→pins CSR under construction: net e's pins
	// are flatPins[netOff[e]:netOff[e+1]], sorted and duplicate-free.
	flatPins []int32
	netOff   []int32
	dropped  int
	dupPins  int
	strict   bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{netOff: make([]int32, 1)} }

// Reserve preallocates for the announced final sizes: nodes node records,
// nets net records and pins total pins. Announcing the counts up front means
// no append in AddNode/AddNet ever reallocates, which both removes the
// transient 2× peak of slice doubling and keeps Build zero-copy on the pin
// arena — the difference between fitting a million-node netlist in ~1× its
// CSR footprint and paying ~3× while building it. Growing past a
// reservation is still legal, it just reintroduces doubling.
func (b *Builder) Reserve(nodes, nets, pins int) {
	b.nodeWeight = slices.Grow(b.nodeWeight, nodes)
	b.netCost = slices.Grow(b.netCost, nets)
	b.netOff = slices.Grow(b.netOff, nets)
	b.flatPins = slices.Grow(b.flatPins, pins)
}

// RejectDuplicatePins makes AddNet fail on a net listing the same node
// twice instead of silently merging the duplicates. Merging is the right
// default for coarsening (distinct fine pins legitimately land on one
// cluster), but for netlist generators a duplicate pin is a bug: merged
// away it silently deflates the announced pin count and inflates nothing,
// kept it would inflate degree statistics. Strict mode surfaces it.
func (b *Builder) RejectDuplicatePins() { b.strict = true }

// AddNode appends a node with the given name and weight and returns its ID.
// weight must be ≥ 1.
func (b *Builder) AddNode(name string, weight int64) int {
	if weight < 1 {
		weight = 1
	}
	b.nodeWeight = append(b.nodeWeight, weight)
	if name != "" {
		for len(b.nodeNames) < len(b.nodeWeight)-1 {
			b.nodeNames = append(b.nodeNames, "")
		}
		b.nodeNames = append(b.nodeNames, name)
	}
	return len(b.nodeWeight) - 1
}

// EnsureNodes grows the node set so that IDs [0, n) all exist.
func (b *Builder) EnsureNodes(n int) {
	for len(b.nodeWeight) < n {
		b.AddNode("", 1)
	}
}

// AddNet appends a net with the given name, cost and pins. Duplicate pins
// are merged (counted in DuplicatePins) unless RejectDuplicatePins was
// called, in which case they are an error; a net left with fewer than two
// pins is dropped (counted in DroppedNets). cost must be finite and > 0.
// Referencing a node ID beyond the current node count implicitly creates
// the missing nodes.
func (b *Builder) AddNet(name string, cost float64, pins ...int) error {
	return b.addNet(name, cost, pins, nil)
}

// AddNetInt32 is AddNet for callers whose pins are already int32 (the
// contraction and generator hot paths); it avoids the []int conversion.
func (b *Builder) AddNetInt32(name string, cost float64, pins []int32) error {
	return b.addNet(name, cost, nil, pins)
}

func (b *Builder) addNet(name string, cost float64, pins []int, pins32 []int32) error {
	if err := checkNetCost(len(b.netCost), name, cost); err != nil {
		return err
	}
	// Stage the pins at the arena tail; every error path truncates back.
	start := len(b.flatPins)
	for _, u := range pins {
		if u < 0 || u > maxIndex {
			b.flatPins = b.flatPins[:start]
			return fmt.Errorf("hypergraph: net %q references node %d outside [0, %d]", name, u, maxIndex)
		}
		b.flatPins = append(b.flatPins, int32(u))
	}
	for _, u := range pins32 {
		if u < 0 {
			b.flatPins = b.flatPins[:start]
			return fmt.Errorf("hypergraph: net %q references negative node %d", name, u)
		}
		b.flatPins = append(b.flatPins, u)
	}
	ps := b.flatPins[start:]
	slices.Sort(ps)
	uniq := start
	for i, u := range ps {
		if i == 0 || u != b.flatPins[uniq-1] {
			b.flatPins[uniq] = u
			uniq++
		}
	}
	if dup := len(b.flatPins) - uniq; dup > 0 {
		if b.strict {
			b.flatPins = b.flatPins[:start]
			return fmt.Errorf("hypergraph: net %q lists %d duplicate pin(s)", name, dup)
		}
		b.dupPins += dup
	}
	b.flatPins = b.flatPins[:uniq]
	if uniq-start < 2 {
		b.flatPins = b.flatPins[:start]
		b.dropped++
		return nil
	}
	b.EnsureNodes(int(b.flatPins[uniq-1]) + 1)
	b.netCost = append(b.netCost, cost)
	if name != "" {
		for len(b.netNames) < len(b.netCost)-1 {
			b.netNames = append(b.netNames, "")
		}
		b.netNames = append(b.netNames, name)
	}
	b.netOff = append(b.netOff, int32(uniq))
	return nil
}

// DroppedNets reports how many nets were dropped for having < 2 distinct pins.
func (b *Builder) DroppedNets() int { return b.dropped }

// DuplicatePins reports how many duplicate pins were merged away by AddNet
// (always 0 under RejectDuplicatePins, which errors instead).
func (b *Builder) DuplicatePins() int { return b.dupPins }

// Build finalizes the hypergraph: the accumulated flat pin arena becomes
// the net→pins CSR without copying, the dual node→nets CSR is constructed
// by counting sort, and the result is validated. The Builder must not be
// reused after Build (the Hypergraph owns its arrays).
func (b *Builder) Build() (*Hypergraph, error) {
	n := len(b.nodeWeight)
	m := len(b.netCost)
	numPins := len(b.flatPins)
	if n > maxIndex || m > maxIndex || numPins > maxIndex {
		return nil, fmt.Errorf("hypergraph: %d nodes / %d nets / %d pins exceed the int32 arena limit", n, m, numPins)
	}
	unit := true
	for _, c := range b.netCost {
		if c != 1 {
			unit = false
			break
		}
	}
	if len(b.netOff) != m+1 {
		// AddNet appends one offset per kept net; a mismatch means the
		// Builder was constructed without NewBuilder.
		return nil, fmt.Errorf("hypergraph: builder has %d net offsets for %d nets", len(b.netOff), m)
	}
	// Dual node→nets CSR via counting sort over the pin arena: nets are
	// visited in increasing ID so each node's net list comes out sorted.
	nodeOff := make([]int32, n+1)
	for _, u := range b.flatPins {
		nodeOff[u+1]++
	}
	for u := 0; u < n; u++ {
		nodeOff[u+1] += nodeOff[u]
	}
	netArr := make([]int32, numPins)
	next := make([]int32, n)
	copy(next, nodeOff[:n])
	for e := 0; e < m; e++ {
		for _, u := range b.flatPins[b.netOff[e]:b.netOff[e+1]] {
			netArr[next[u]] = int32(e)
			next[u]++
		}
	}
	h := &Hypergraph{
		nodeNames:  b.nodeNames,
		netNames:   b.netNames,
		pinArr:     b.flatPins,
		netOff:     b.netOff,
		netArr:     netArr,
		nodeOff:    nodeOff,
		netCost:    b.netCost,
		nodeWeight: b.nodeWeight,
		unitCost:   unit,
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// MustBuild is Build that panics on error, for tests and fixtures.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}
