package ds

// GainHeap is an indexed max-heap of nodes keyed by float gain, the one
// ordered container behind every float-gain selector: PROP, FM-tree, LA
// and the n-level localized refiner. Its order is strict and total — gain
// descending, then stamp descending, then node ID ascending — so no two
// stored nodes compare equal and every ordered traversal is deterministic
// however the backing arrays happen to be arranged.
//
// The stamp sets how equal gains tie. An ID-ordered heap (NewGainHeap,
// NewSharedGainHeap) stores no stamps — every stamp reads zero — so ties
// go to the smaller ID: PROP's selection order. A LIFO heap
// (NewLIFOGainHeap) stamps every Insert, new node or re-key, from its own
// clock, so ties go to the most recently updated node: the bucket array's
// LIFO discipline, which FM-tree and LA keep under float gains.
//
// The best min(headCap, Len) entries sit in the head, a small array sorted
// best first; the rest sit in the tail, a binary heap. Every head entry
// ranks above every tail entry, and each operation moves at most one entry
// across that boundary, so the reads the selectors make after every move —
// PROP's top-five refresh and the best-first feasibility scan — start from
// a sorted array instead of a heap walk.
//
// Each entry holds its node, its gain and, in a LIFO heap, its stamp, so
// the only dense per-node state is the position index. A heap owns one,
// or heaps with disjoint members share a caller-supplied one; the n-level
// refiner keeps both sides of a million-node hierarchy this way in memory
// proportional to its active set.
//
// Ordered reads (TopDown, TopK) do not mutate the heap: they read the head,
// then expand a small candidate frontier over the tail — start at the
// tail's root; whenever an element is yielded, its two children become
// candidates — which visits the next k tail elements in order in
// O(k log k).
type GainHeap struct {
	pos []int32 // pos[u] = tail index of node u, headBase+slot in the head, -1 if absent

	hn      int              // head entries in use; below headCap only when the tail is empty
	hNodes  [headCap]int32   // head, best first: node ID
	hGains  [headCap]float64 // head: gain
	hStamps [headCap]int64   // head: stamp, zero in an ID-ordered heap

	nodes  []int32   // per tail entry: node ID
	gains  []float64 // per tail entry: gain
	stamps []int64   // per tail entry: stamp, LIFO heaps only
	lifo   bool      // stamp every Insert from clock
	clock  int64     // last stamp handed out
	cand   []int32   // TopDown scratch: candidate frontier of tail indices
}

// headCap is the head's size. Shifting a longer sorted array costs more
// than the frontier walk it saves (16 and 32 measured slower than 8).
const headCap = 8

// headBase offsets a head slot's position entry, so every stored node reads
// pos[u] >= 0 and no head slot collides with a tail index: tail indices
// stay below the node ID space, which stays below 1<<30 (node IDs are
// int32 and far fewer fit in memory).
const headBase = 1 << 30

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
func (h *GainHeap) Len() int { return h.hn + len(h.nodes) }

// Contains reports whether node u is stored; with a shared index, whether
// u is stored in any of the heaps sharing it.
func (h *GainHeap) Contains(u int) bool { return h.pos[u] >= 0 }

// Gain returns u's stored gain; u must be present.
func (h *GainHeap) Gain(u int) float64 {
	p := h.pos[u]
	if p >= headBase {
		return h.hGains[p-headBase]
	}
	return h.gains[p]
}

// ahead reports whether entry (ga, sa, ua) orders ahead of (gb, sb, ub).
// LIFO stamps are unique, so they decide every tie in a LIFO heap.
func (h *GainHeap) ahead(ga float64, sa int64, ua int32, gb float64, sb int64, ub int32) bool {
	if ga != gb {
		return ga > gb
	}
	if h.lifo {
		return sa > sb
	}
	return ua < ub
}

// before reports whether tail entry i orders ahead of tail entry j.
func (h *GainHeap) before(i, j int) bool {
	if gi, gj := h.gains[i], h.gains[j]; gi != gj {
		return gi > gj
	}
	if h.lifo {
		return h.stamps[i] > h.stamps[j]
	}
	return h.nodes[i] < h.nodes[j]
}

// tailStamp returns tail entry i's stamp (zero in an ID-ordered heap).
func (h *GainHeap) tailStamp(i int) int64 {
	if h.lifo {
		return h.stamps[i]
	}
	return 0
}

// tailBeatsHead reports whether the tail's best entry orders ahead of the
// head's worst, the one way the boundary invariant can break.
func (h *GainHeap) tailBeatsHead() bool {
	w := h.hn - 1
	return len(h.nodes) > 0 &&
		h.ahead(h.gains[0], h.tailStamp(0), h.nodes[0], h.hGains[w], h.hStamps[w], h.hNodes[w])
}

// Insert adds node u with the given gain; if u is present it is re-keyed.
// A LIFO heap stamps u afresh either way.
func (h *GainHeap) Insert(u int, g float64) {
	var st int64
	if h.lifo {
		h.clock++
		st = h.clock
	}
	u32 := int32(u)
	switch p := int(h.pos[u]); {
	case p >= headBase:
		h.rekeyHead(p-headBase, u32, g, st)
	case p >= 0:
		up := h.ahead(g, st, u32, h.gains[p], h.tailStamp(p), u32)
		h.gains[p] = g
		if h.lifo {
			h.stamps[p] = st
		}
		if !up {
			h.siftDown(p)
		} else if h.siftUp(p) == 0 && h.tailBeatsHead() { // it rose to the tail's root
			h.promote()
		}
	case h.hn < headCap: // the tail is empty
		h.hn++
		h.placeHead(h.hn-1, u32, g, st)
	default:
		w := headCap - 1
		if !h.ahead(g, st, u32, h.hGains[w], h.hStamps[w], h.hNodes[w]) {
			h.pushTail(u32, g, st)
			return
		}
		h.pushTail(h.hNodes[w], h.hGains[w], h.hStamps[w])
		h.placeHead(w, u32, g, st)
	}
}

// rekeyHead gives head slot i's node u the key (g, st). If the tail's best
// now ranks ahead of it, u leaves the head: the slots behind it close up,
// the tail's best takes the last slot, and u replaces it at the tail's root.
func (h *GainHeap) rekeyHead(i int, u int32, g float64, st int64) {
	if len(h.nodes) == 0 || !h.ahead(h.gains[0], h.tailStamp(0), h.nodes[0], g, st, u) {
		h.placeHead(i, u, g, st)
		return
	}
	h.closeHead(i)
	h.setHead(h.hn-1, h.nodes[0], h.gains[0], h.tailStamp(0))
	h.setTail(0, u, g, st)
	h.siftDown(0)
}

// promote swaps the tail's root with the head's worst entry, which ranks
// ahead of every other tail entry and so stays at the root.
func (h *GainHeap) promote() {
	w := h.hn - 1
	u, g, st := h.nodes[0], h.gains[0], h.tailStamp(0)
	h.setTail(0, h.hNodes[w], h.hGains[w], h.hStamps[w])
	h.placeHead(w, u, g, st)
}

// placeHead puts (u, g, st) into the head, starting from the hole at slot i
// and shifting the entries it passes, so the head stays sorted.
func (h *GainHeap) placeHead(i int, u int32, g float64, st int64) {
	for i > 0 && h.ahead(g, st, u, h.hGains[i-1], h.hStamps[i-1], h.hNodes[i-1]) {
		h.setHead(i, h.hNodes[i-1], h.hGains[i-1], h.hStamps[i-1])
		i--
	}
	for i+1 < h.hn && h.ahead(h.hGains[i+1], h.hStamps[i+1], h.hNodes[i+1], g, st, u) {
		h.setHead(i, h.hNodes[i+1], h.hGains[i+1], h.hStamps[i+1])
		i++
	}
	h.setHead(i, u, g, st)
}

func (h *GainHeap) setHead(i int, u int32, g float64, st int64) {
	h.hNodes[i], h.hGains[i], h.hStamps[i] = u, g, st
	h.pos[u] = int32(headBase + i)
}

// closeHead shifts the head entries behind slot i forward one slot,
// leaving the last slot in use as a hole.
func (h *GainHeap) closeHead(i int) {
	for ; i+1 < h.hn; i++ {
		h.setHead(i, h.hNodes[i+1], h.hGains[i+1], h.hStamps[i+1])
	}
}

// pushTail adds an entry to the tail.
func (h *GainHeap) pushTail(u int32, g float64, st int64) {
	h.pos[u] = int32(len(h.nodes))
	h.nodes = append(h.nodes, u)
	h.gains = append(h.gains, g)
	if h.lifo {
		h.stamps = append(h.stamps, st)
	}
	h.siftUp(len(h.nodes) - 1)
}

// Delete removes node u; no-op if absent. A head slot it frees is refilled
// from the tail's root.
func (h *GainHeap) Delete(u int) {
	p := int(h.pos[u])
	if p < 0 {
		return
	}
	h.pos[u] = -1
	if p >= headBase {
		h.closeHead(p - headBase)
		if len(h.nodes) == 0 {
			h.hn--
			return
		}
		h.setHead(h.hn-1, h.nodes[0], h.gains[0], h.tailStamp(0))
		p = 0 // the root's entry moved up; remove it from the tail
	}
	last := len(h.nodes) - 1
	if p != last {
		h.setTail(p, h.nodes[last], h.gains[last], h.tailStamp(last))
	}
	h.truncate(last)
	if p != last {
		h.siftDown(h.siftUp(p))
	}
}

// Clear removes every stored node, resetting their position entries and
// keeping the entry capacity for reuse.
func (h *GainHeap) Clear() {
	for _, u := range h.hNodes[:h.hn] {
		h.pos[u] = -1
	}
	h.hn = 0
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

// siftUp restores the tail's heap property upward from i and returns the
// final position. The entry rides a hole up: each parent it passes moves
// down one level and is written once.
func (h *GainHeap) siftUp(i int) int {
	u, g, st := h.nodes[i], h.gains[i], h.tailStamp(i)
	j := i
	for j > 0 {
		p := (j - 1) / 2
		if !h.ahead(g, st, u, h.gains[p], h.tailStamp(p), h.nodes[p]) {
			break
		}
		h.setTail(j, h.nodes[p], h.gains[p], h.tailStamp(p))
		j = p
	}
	if j != i {
		h.setTail(j, u, g, st)
	}
	return j
}

// siftDown restores the tail's heap property downward from i, riding a
// hole down as siftUp does.
func (h *GainHeap) siftDown(i int) {
	n := len(h.nodes)
	u, g, st := h.nodes[i], h.gains[i], h.tailStamp(i)
	j := i
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.before(r, c) {
			c = r
		}
		if !h.ahead(h.gains[c], h.tailStamp(c), h.nodes[c], g, st, u) {
			break
		}
		h.setTail(j, h.nodes[c], h.gains[c], h.tailStamp(c))
		j = c
	}
	if j != i {
		h.setTail(j, u, g, st)
	}
}

func (h *GainHeap) setTail(i int, u int32, g float64, st int64) {
	h.nodes[i], h.gains[i] = u, g
	if h.lifo {
		h.stamps[i] = st
	}
	h.pos[u] = int32(i)
}

// TopDown visits stored nodes in order, best first, until visit returns
// false or the heap is exhausted, without mutating the heap. visit must
// not mutate it either.
func (h *GainHeap) TopDown(visit func(u int, g float64) bool) {
	for i := 0; i < h.hn; i++ {
		if !visit(int(h.hNodes[i]), h.hGains[i]) {
			return
		}
	}
	h.frontierStart()
	for len(h.cand) > 0 {
		i := h.frontierNext()
		if !visit(int(h.nodes[i]), h.gains[i]) {
			break
		}
	}
}

// TopK appends up to k best nodes to dst and returns it; used by PROP's
// "refresh the top few contenders" update rule (§3.4). Up to the head's
// size it copies the head.
func (h *GainHeap) TopK(k int, dst []int) []int {
	for i := 0; i < min(k, h.hn); i++ {
		dst = append(dst, int(h.hNodes[i]))
	}
	if k <= h.hn {
		return dst
	}
	h.frontierStart()
	for n := h.hn; n < k && len(h.cand) > 0; n++ {
		dst = append(dst, int(h.nodes[h.frontierNext()]))
	}
	return dst
}

// frontierStart resets the candidate frontier h.cand to the tail's root.
// The frontier is itself a tiny binary heap of tail indices, ordered by
// the entries they refer to; it grows by at most one per yielded entry.
func (h *GainHeap) frontierStart() {
	h.cand = h.cand[:0]
	if len(h.nodes) > 0 {
		h.cand = append(h.cand, 0)
	}
}

// frontierNext pops the best frontier entry, pushes its children and
// returns it; the frontier must be non-empty.
func (h *GainHeap) frontierNext() int32 {
	cand := h.cand
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
	for child := 2*top + 1; child <= 2*top+2 && int(child) < len(h.nodes); child++ {
		cand = append(cand, child)
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
	h.cand = cand
	return top
}
