package ds

import (
	"math/rand"
	"testing"
)

// TestBucketsAgainstOracle drives the FM bucket array (integer gains)
// through a random operation sequence against a map oracle.
func TestBucketsAgainstOracle(t *testing.T) {
	const n, maxGain = 90, 12
	rng := rand.New(rand.NewSource(9))
	b := NewBuckets(n, maxGain)
	ref := map[int]int{}
	refMax := func() (int, bool) {
		bg, ok := 0, false
		for _, g := range ref {
			if !ok || g > bg {
				bg, ok = g, true
			}
		}
		return bg, ok
	}
	for step := 0; step < 5000; step++ {
		u := rng.Intn(n)
		switch {
		case !b.Contains(u):
			g := rng.Intn(2*maxGain+1) - maxGain
			b.Insert(u, g)
			ref[u] = g
		case rng.Intn(2) == 0:
			b.Remove(u)
			delete(ref, u)
		default:
			g := rng.Intn(2*maxGain+1) - maxGain
			b.Update(u, g)
			ref[u] = g
		}
		if b.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d, oracle=%d", step, b.Len(), len(ref))
		}
		wg, wok := refMax()
		gn, gg, gok := b.Max()
		if wok != gok {
			t.Fatalf("step %d: Max ok=%v, oracle ok=%v", step, gok, wok)
		}
		if wok {
			if gg != wg {
				t.Fatalf("step %d: Max gain=%d, oracle=%d", step, gg, wg)
			}
			if ref[gn] != gg {
				t.Fatalf("step %d: Max returned node %d with stale gain", step, gn)
			}
		}
	}
}

// TestBucketsTopDownOrder checks TopDown visits gains non-increasingly and
// visits every stored node exactly once.
func TestBucketsTopDownOrder(t *testing.T) {
	b := NewBuckets(50, 10)
	rng := rand.New(rand.NewSource(3))
	want := map[int]int{}
	for u := 0; u < 50; u++ {
		g := rng.Intn(21) - 10
		b.Insert(u, g)
		want[u] = g
	}
	prev := 11
	seen := map[int]bool{}
	b.TopDown(func(u, g int) bool {
		if g > prev {
			t.Fatalf("TopDown out of order: %d after %d", g, prev)
		}
		if want[u] != g {
			t.Fatalf("TopDown node %d gain %d, want %d", u, g, want[u])
		}
		if seen[u] {
			t.Fatalf("TopDown visited node %d twice", u)
		}
		seen[u] = true
		prev = g
		return true
	})
	if len(seen) != 50 {
		t.Fatalf("TopDown visited %d nodes, want 50", len(seen))
	}
}

// TestBucketsGainClamping checks out-of-range gains are clamped into the
// bucket range but preserved by Gain.
func TestBucketsGainClamping(t *testing.T) {
	b := NewBuckets(4, 3)
	b.Insert(0, 9)
	b.Insert(1, -9)
	if g := b.Gain(0); g != 9 {
		t.Errorf("Gain(0) = %d, want 9", g)
	}
	if n, g, ok := b.Max(); !ok || n != 0 || g != 9 {
		t.Errorf("Max = (%d,%d,%v), want (0,9,true)", n, g, ok)
	}
}
