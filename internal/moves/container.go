package moves

import (
	"math"

	"prop/internal/ds"
)

// Container is the gain container a pass selects nodes from — one per
// side. The engine only needs insert-or-update, removal, emptiness and
// best-first feasibility scans; policies keep a concrete reference when
// they need structure-specific operations (e.g. PROP's TopK refresh).
//
// Insert is an upsert: inserting a present node re-keys it. Both
// wrappers keep their structure's tie-break exactly (see each
// constructor), which the golden bit-identity tests pin.
type Container interface {
	// Insert adds u with the given key, or re-keys it if present.
	Insert(u int, key float64)
	// Update re-keys u, which must be present. It skips Insert's presence
	// probe, so delta-gain update paths (the hottest container traffic)
	// should prefer it.
	Update(u int, key float64)
	// Remove deletes u (u must be present).
	Remove(u int)
	// Len returns the number of stored nodes.
	Len() int
	// FirstFeasible scans best-first and returns the first node accepted
	// by ok, or false if none is.
	FirstFeasible(ok func(u int) bool) (int, bool)
}

// bucketContainer adapts ds.Buckets: integer gains (keys are rounded, so
// unit net costs only), Θ(1) updates, LIFO order within a gain bucket.
type bucketContainer struct{ b *ds.Buckets }

// WrapBuckets wraps the classic FM bucket array.
func WrapBuckets(b *ds.Buckets) Container { return bucketContainer{b} }

func (c bucketContainer) Insert(u int, key float64) {
	g := int(math.Round(key))
	if c.b.Contains(u) {
		c.b.Update(u, g)
	} else {
		c.b.Insert(u, g)
	}
}
func (c bucketContainer) Update(u int, key float64) { c.b.Update(u, int(math.Round(key))) }
func (c bucketContainer) Remove(u int)              { c.b.Remove(u) }
func (c bucketContainer) Len() int                  { return c.b.Len() }
func (c bucketContainer) FirstFeasible(ok func(int) bool) (int, bool) {
	best, found := -1, false
	c.b.TopDown(func(u, _ int) bool {
		if ok(u) {
			best, found = u, true
			return false
		}
		return true
	})
	return best, found
}

// heapContainer adapts ds.GainHeap: float keys (arbitrary net costs),
// in-place keyed updates, non-mutating top-down scans in the heap's
// strict order — ID ties for PROP, LIFO ties for FM-tree and LA.
type heapContainer struct{ h *ds.GainHeap }

// WrapHeap wraps an indexed gain heap.
func WrapHeap(h *ds.GainHeap) Container { return heapContainer{h} }

func (c heapContainer) Insert(u int, key float64) { c.h.Insert(u, key) }
func (c heapContainer) Update(u int, key float64) { c.h.Insert(u, key) }
func (c heapContainer) Remove(u int)              { c.h.Delete(u) }
func (c heapContainer) Len() int                  { return c.h.Len() }
func (c heapContainer) FirstFeasible(ok func(int) bool) (int, bool) {
	best, found := -1, false
	c.h.TopDown(func(u int, _ float64) bool {
		if ok(u) {
			best, found = u, true
			return false
		}
		return true
	})
	return best, found
}
