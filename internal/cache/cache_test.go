package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if _, ok := c.Get(1); !ok { // 1 now most recent
		t.Fatal("missing 1")
	}
	c.Put(3, "c") // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Errorf("Get(1) = %q, %v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != "c" {
		t.Errorf("Get(3) = %q, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	c := New[string, int](4)
	c.Put("k", 1)
	c.Put("k", 2)
	if v, _ := c.Get("k"); v != 2 {
		t.Errorf("Get = %d, want 2", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestHitMissCounters(t *testing.T) {
	c := New[int, int](2)
	c.Get(1)
	c.Put(1, 10)
	c.Get(1)
	c.Get(2)
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", c.Hits(), c.Misses())
	}
}

func TestTinyCapacityClamped(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % 32
				c.Put(k, k)
				if v, ok := c.Get(k); ok && v != k {
					panic(fmt.Sprintf("Get(%d) = %d", k, v))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}

func TestLRUBackend(t *testing.T) {
	b := New[Key, []byte](2)
	k1 := Key{Kind: "partition", Netlist: 1, Options: 2, K: 2}
	k2 := Key{Kind: "partition", Netlist: 1, Options: 2, K: 4}
	k3 := Key{Kind: "repartition", Netlist: 1, Options: 2, K: 2}

	if _, ok := b.Get(k1); ok {
		t.Fatal("empty cache hit")
	}
	b.Put(k1, []byte("r1"))
	b.Put(k2, []byte("r2"))
	if got, ok := b.Get(k1); !ok || string(got) != "r1" {
		t.Fatalf("Get(k1) = %q, %t", got, ok)
	}
	// k3 differs from k1 only by Kind — still a distinct address; inserting
	// it evicts the least recently used entry (k2).
	b.Put(k3, []byte("r3"))
	if _, ok := b.Get(k2); ok {
		t.Error("k2 survived past capacity")
	}
	if got, ok := b.Get(k3); !ok || string(got) != "r3" {
		t.Errorf("Get(k3) = %q, %t", got, ok)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
	if hits, misses := b.Hits(), b.Misses(); hits != 2 || misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", hits, misses)
	}
}
