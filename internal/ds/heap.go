package ds

// GainHeap is an indexed binary max-heap of nodes keyed by float gain,
// the one ordered container behind every float-gain selector: PROP,
// FM-tree, LA and the n-level localized refiner. Its order is strict and
// total — gain descending, then stamp descending, then node ID ascending —
// so no two stored nodes compare equal and every ordered traversal is
// deterministic however the backing array happens to be arranged.
//
// The stamp sets how equal gains tie. An ID-ordered heap (NewGainHeap,
// NewSharedGainHeap) stores no stamps — every stamp reads zero — so ties
// go to the smaller ID: PROP's selection order. A LIFO heap
// (NewLIFOGainHeap) stamps every Insert, new node or re-key, from its own
// clock, so ties go to the most recently updated node: the bucket array's
// LIFO discipline, which FM-tree and LA keep under float gains.
//
// Each entry holds its node, its gain and, in a LIFO heap, its stamp, so
// the only dense per-node state is the position index. A heap owns one,
// or heaps with disjoint members share a caller-supplied one; the n-level
// refiner keeps both sides of a million-node hierarchy this way in memory
// proportional to its active set.
//
// Ordered reads (TopDown, TopK) do not mutate the heap: they expand a
// small candidate frontier — start at the root; whenever an element is
// yielded, its two children become candidates — which visits the top k
// elements in order in O(k log k).
type GainHeap struct {
	pos    []int32   // pos[u] = entry index of node u, -1 if absent
	nodes  []int32   // per entry: node ID
	gains  []float64 // per entry: gain
	stamps []int64   // per entry: stamp, LIFO heaps only
	lifo   bool      // stamp every Insert from clock
	clock  int64     // last stamp handed out
	cand   []int32   // TopDown scratch: candidate frontier of entry indices
}

// NewGainHeap returns an empty heap for node IDs in [0, n) whose equal
// gains order by ascending ID. Like NewLIFOGainHeap it reserves entries
// for all n nodes: the selectors fill a heap with a whole side at every
// pass start.
func NewGainHeap(n int) *GainHeap {
	h := &GainHeap{pos: make([]int32, n), nodes: make([]int32, 0, n), gains: make([]float64, 0, n)}
	FillAbsent(h.pos)
	return h
}

// NewLIFOGainHeap returns an empty heap for node IDs in [0, n) whose equal
// gains order most recently inserted first.
func NewLIFOGainHeap(n int) *GainHeap {
	h := NewGainHeap(n)
	h.stamps, h.lifo = make([]int64, 0, n), true
	return h
}

// NewSharedGainHeap returns an empty ID-ordered heap over a caller-owned
// position index covering the node ID space, every entry -1 (FillAbsent).
// Several heaps may share one index as long as no node is in two of them
// at once: each touches only its own members' entries. Its entries grow
// with use, so its memory follows the nodes it has held, not the ID space.
func NewSharedGainHeap(pos []int32) *GainHeap { return &GainHeap{pos: pos} }

// FillAbsent sets every entry of pos to -1, the empty-heap state.
func FillAbsent(pos []int32) {
	for i := range pos {
		pos[i] = -1
	}
}

// Len returns the number of stored nodes.
func (h *GainHeap) Len() int { return len(h.nodes) }

// Contains reports whether node u is stored; with a shared index, whether
// u is stored in any of the heaps sharing it.
func (h *GainHeap) Contains(u int) bool { return h.pos[u] >= 0 }

// Gain returns u's stored gain; u must be present.
func (h *GainHeap) Gain(u int) float64 { return h.gains[h.pos[u]] }

// before reports whether entry i orders ahead of entry j. LIFO stamps are
// unique, so they decide every tie in a LIFO heap.
func (h *GainHeap) before(i, j int) bool {
	if gi, gj := h.gains[i], h.gains[j]; gi != gj {
		return gi > gj
	}
	if h.lifo {
		return h.stamps[i] > h.stamps[j]
	}
	return h.nodes[i] < h.nodes[j]
}

func (h *GainHeap) swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.gains[i], h.gains[j] = h.gains[j], h.gains[i]
	if h.lifo {
		h.stamps[i], h.stamps[j] = h.stamps[j], h.stamps[i]
	}
	h.pos[h.nodes[i]] = int32(i)
	h.pos[h.nodes[j]] = int32(j)
}

// Insert adds node u with the given gain; if u is present it is re-keyed.
// A LIFO heap stamps u afresh either way.
func (h *GainHeap) Insert(u int, g float64) {
	i := int(h.pos[u])
	if i < 0 { // append an entry, keyed below
		i = len(h.nodes)
		h.pos[u] = int32(i)
		h.nodes = append(h.nodes, int32(u))
		h.gains = append(h.gains, 0)
		if h.lifo {
			h.stamps = append(h.stamps, 0)
		}
	}
	h.gains[i] = g
	if h.lifo {
		h.clock++
		h.stamps[i] = h.clock
	}
	h.siftDown(h.siftUp(i))
}

// Delete removes node u; no-op if absent.
func (h *GainHeap) Delete(u int) {
	i := int(h.pos[u])
	if i < 0 {
		return
	}
	last := len(h.nodes) - 1
	h.swap(i, last)
	h.pos[u] = -1
	h.truncate(last)
	if i != last {
		h.siftDown(h.siftUp(i))
	}
}

// Clear removes every stored node, resetting their position entries and
// keeping the entry capacity for reuse.
func (h *GainHeap) Clear() {
	for _, u := range h.nodes {
		h.pos[u] = -1
	}
	h.truncate(0)
}

func (h *GainHeap) truncate(n int) {
	h.nodes, h.gains = h.nodes[:n], h.gains[:n]
	if h.lifo {
		h.stamps = h.stamps[:n]
	}
}

// siftUp restores the heap property upward from i and returns the final
// position.
func (h *GainHeap) siftUp(i int) int {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
	return i
}

func (h *GainHeap) siftDown(i int) {
	n := len(h.nodes)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.before(r, c) {
			c = r
		}
		if !h.before(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// TopDown visits stored nodes in heap order, best first, until visit
// returns false or the heap is exhausted, without mutating the heap.
// visit must not mutate it either.
func (h *GainHeap) TopDown(visit func(u int, g float64) bool) {
	if len(h.nodes) == 0 {
		return
	}
	// cand is itself a tiny binary heap of entry indices, ordered by the
	// entries they refer to; it grows by at most one per visited entry.
	cand := h.cand[:0]
	push := func(i int32) {
		cand = append(cand, i)
		c := len(cand) - 1
		for c > 0 {
			p := (c - 1) / 2
			if !h.before(int(cand[c]), int(cand[p])) {
				break
			}
			cand[c], cand[p] = cand[p], cand[c]
			c = p
		}
	}
	pop := func() int32 {
		top := cand[0]
		last := len(cand) - 1
		cand[0] = cand[last]
		cand = cand[:last]
		c := 0
		for {
			l, r := 2*c+1, 2*c+2
			best := c
			if l < len(cand) && h.before(int(cand[l]), int(cand[best])) {
				best = l
			}
			if r < len(cand) && h.before(int(cand[r]), int(cand[best])) {
				best = r
			}
			if best == c {
				break
			}
			cand[c], cand[best] = cand[best], cand[c]
			c = best
		}
		return top
	}
	push(0)
	for len(cand) > 0 {
		i := pop()
		if !visit(int(h.nodes[i]), h.gains[i]) {
			break
		}
		if l := 2*i + 1; int(l) < len(h.nodes) {
			push(l)
		}
		if r := 2*i + 2; int(r) < len(h.nodes) {
			push(r)
		}
	}
	h.cand = cand[:0]
}

// TopK appends up to k best nodes to dst and returns it; used by PROP's
// "refresh the top few contenders" update rule (§3.4).
func (h *GainHeap) TopK(k int, dst []int) []int {
	h.TopDown(func(u int, _ float64) bool {
		if len(dst) >= k {
			return false
		}
		dst = append(dst, u)
		return true
	})
	return dst
}
