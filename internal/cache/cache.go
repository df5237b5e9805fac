// Package cache provides a small concurrency-safe LRU keyed by comparable
// fingerprints. It backs the partitioning result cache: keys are content
// hashes of (netlist, options) and values are completed results, so repeat
// requests for an unchanged netlist skip the multi-start search entirely.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key is the content-addressed identity of one partitioning result: the
// netlist and options fingerprints plus the part count, with a Kind
// discriminator separating result families (sync partitions, warm
// repartitions, ...) that happen to share fingerprints. Two requests with
// equal Keys are guaranteed to produce bit-identical payloads — the
// engine is deterministic in everything a Key captures, and knobs that do
// not change the result (parallelism, tracing) are deliberately excluded
// from the fingerprints.
type Key struct {
	Kind    string
	Netlist uint64
	Options uint64
	K       int
}

// Cache is a fixed-capacity LRU map. The zero value is not usable; call
// New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries (capacity
// < 1 selects 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element, capacity),
	}
}

// Get returns the value for k and marks it most recently used. The second
// result reports whether k was present; every call counts as a hit or a
// miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put inserts or replaces the value for k, evicting the least recently
// used entry when the cache is at capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Hits returns the cumulative Get hit count.
func (c *Cache[K, V]) Hits() uint64 { return c.hits.Load() }

// Misses returns the cumulative Get miss count.
func (c *Cache[K, V]) Misses() uint64 { return c.misses.Load() }
