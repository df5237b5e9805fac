// Package ds provides the two gain-ordered node containers used by the
// partitioners: the classic FM bucket array (O(1) updates, valid only for
// integer gains, i.e. unit net costs) and an indexed heap keyed by float
// gains (O(log n) updates, required by PROP and by FM/LA under
// non-uniform net costs — see §3.5 and §4 of the paper).
package ds

import "fmt"

// Buckets is a Fiduccia–Mattheyses bucket array over one partition side.
// Gains must lie in [−maxGain, +maxGain]. Nodes are identified by dense IDs
// < n; each node may be present at most once.
type Buckets struct {
	head    []int // per gain offset: first node, or -1
	next    []int // per node
	prev    []int // per node: previous node, or ^gainOffset when head
	gain    []int // per node: current gain (valid when present)
	present []bool
	maxOff  int // highest non-empty offset bound (decays lazily)
	maxGain int
	count   int
}

// NewBuckets creates a bucket array for n nodes with gains in
// [−maxGain, maxGain].
func NewBuckets(n, maxGain int) *Buckets {
	if maxGain < 0 {
		maxGain = 0
	}
	b := &Buckets{
		head:    make([]int, 2*maxGain+1),
		next:    make([]int, n),
		prev:    make([]int, n),
		gain:    make([]int, n),
		present: make([]bool, n),
		maxOff:  -1,
		maxGain: maxGain,
	}
	for i := range b.head {
		b.head[i] = -1
	}
	return b
}

// Len returns the number of nodes currently stored.
func (b *Buckets) Len() int { return b.count }

// Contains reports whether node u is stored.
func (b *Buckets) Contains(u int) bool { return b.present[u] }

// Gain returns the stored gain of u; u must be present.
func (b *Buckets) Gain(u int) int { return b.gain[u] }

func (b *Buckets) offset(g int) int {
	if g > b.maxGain {
		g = b.maxGain
	}
	if g < -b.maxGain {
		g = -b.maxGain
	}
	return g + b.maxGain
}

// Insert adds node u with the given gain. Inserting a present node panics;
// use Update instead.
func (b *Buckets) Insert(u, gain int) {
	if b.present[u] {
		panic(fmt.Sprintf("ds: Buckets.Insert: node %d already present", u))
	}
	off := b.offset(gain)
	b.gain[u] = gain
	b.present[u] = true
	b.next[u] = b.head[off]
	if b.head[off] >= 0 {
		b.prev[b.head[off]] = u
	}
	b.prev[u] = ^off
	b.head[off] = u
	if off > b.maxOff {
		b.maxOff = off
	}
	b.count++
}

// Remove deletes node u; it must be present.
func (b *Buckets) Remove(u int) {
	if !b.present[u] {
		panic(fmt.Sprintf("ds: Buckets.Remove: node %d not present", u))
	}
	nx := b.next[u]
	if pv := b.prev[u]; pv < 0 {
		b.head[^pv] = nx
	} else {
		b.next[pv] = nx
	}
	if nx >= 0 {
		b.prev[nx] = b.prev[u]
	}
	b.present[u] = false
	b.count--
}

// Update changes the gain of a present node u.
func (b *Buckets) Update(u, gain int) {
	b.Remove(u)
	b.Insert(u, gain)
}

// Max returns the node with the highest gain (LIFO within a bucket, the
// classic FM tie-break) or ok=false when empty.
func (b *Buckets) Max() (node, gain int, ok bool) {
	for b.maxOff >= 0 {
		if u := b.head[b.maxOff]; u >= 0 {
			return u, b.gain[u], true
		}
		b.maxOff--
	}
	return -1, 0, false
}

// TopDown calls fn for nodes in non-increasing gain order until fn returns
// false. Used for balance-constrained selection (skip infeasible nodes).
func (b *Buckets) TopDown(fn func(node, gain int) bool) {
	for off := b.maxOff; off >= 0; off-- {
		for u := b.head[off]; u >= 0; u = b.next[u] {
			if !fn(u, b.gain[u]) {
				return
			}
		}
	}
}
