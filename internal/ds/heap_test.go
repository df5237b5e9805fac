package ds

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The TestAVL* names date from the balanced tree FM-tree and LA selected
// from before GainHeap; the tests hold the heap to that tree's contract,
// the strict (gain desc, stamp desc, ID asc) order, against a sorted
// oracle.

// oracle mirrors one GainHeap as the map of its live (gain, stamp, ID)
// triples, stamping inserts the way the heap's tie mode does.
type oracle struct {
	lifo  bool
	clock int64
	live  map[int]triple
}

type triple struct {
	gain  float64
	stamp int64
	node  int32
}

func newOracle(lifo bool) *oracle { return &oracle{lifo: lifo, live: map[int]triple{}} }

func (o *oracle) insert(u int, g float64) {
	var stamp int64
	if o.lifo {
		o.clock++
		stamp = o.clock
	}
	o.live[u] = triple{gain: g, stamp: stamp, node: int32(u)}
}

func (o *oracle) delete(u int) { delete(o.live, u) }

func (o *oracle) clear() { clear(o.live) }

// sorted returns the live triples in the heap's documented order.
func (o *oracle) sorted() []triple {
	out := make([]triple, 0, len(o.live))
	for _, e := range o.live {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.gain != b.gain {
			return a.gain > b.gain
		}
		if a.stamp != b.stamp {
			return a.stamp > b.stamp
		}
		return a.node < b.node
	})
	return out
}

// matches reports the first way h disagrees with o on its stored nodes,
// gains, full TopDown order and TopK prefixes, or nil.
func (o *oracle) matches(h *GainHeap) error {
	if h.Len() != len(o.live) {
		return fmt.Errorf("Len %d, oracle %d", h.Len(), len(o.live))
	}
	for u, e := range o.live {
		if !h.Contains(u) {
			return fmt.Errorf("node %d missing", u)
		}
		if h.Gain(u) != e.gain {
			return fmt.Errorf("node %d gain %g, oracle %g", u, h.Gain(u), e.gain)
		}
	}
	want := o.sorted()
	i := 0
	var err error
	h.TopDown(func(u int, g float64) bool {
		if i >= len(want) || int(want[i].node) != u || want[i].gain != g {
			err = fmt.Errorf("TopDown[%d] = (%d, %g), oracle %v", i, u, g, want)
			return false
		}
		i++
		return true
	})
	if err != nil {
		return err
	}
	if i != len(want) {
		return fmt.Errorf("TopDown visited %d of %d nodes", i, len(want))
	}
	for _, k := range []int{0, 1, 2, 3, headCap - 1, headCap, headCap + 1, len(want) / 2, len(want), len(want) + 1} {
		got := h.TopK(k, nil)
		if len(got) != min(k, len(want)) {
			return fmt.Errorf("TopK(%d) returned %d nodes", k, len(got))
		}
		for j, u := range got {
			if u != int(want[j].node) {
				return fmt.Errorf("TopK(%d)[%d] = %d, oracle %d", k, j, u, want[j].node)
			}
		}
	}
	return nil
}

var tieModes = []struct {
	name    string
	newHeap func(n int) *GainHeap
	lifo    bool
}{
	{"id", NewGainHeap, false},
	{"lifo", NewLIFOGainHeap, true},
}

// TestGainHeapMatchesAVL drives both tie modes through random insert,
// re-key and delete sequences with gains from a tiny set, so most
// comparisons are ties, and checks every ordered read against the oracle.
func TestGainHeapMatchesAVL(t *testing.T) {
	const n = 200
	gains := []float64{-2, -1, -0.5, 0, 0.5, 1, 2}
	for _, mode := range tieModes {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 20; trial++ {
			h, o := mode.newHeap(n), newOracle(mode.lifo)
			for op := 0; op < 2000; op++ {
				u := rng.Intn(n)
				if !h.Contains(u) || rng.Intn(3) == 0 {
					g := gains[rng.Intn(len(gains))]
					h.Insert(u, g)
					o.insert(u, g)
				} else {
					h.Delete(u)
					o.delete(u)
				}
			}
			if err := o.matches(h); err != nil {
				t.Fatalf("%s trial %d: %v", mode.name, trial, err)
			}
		}
	}
}

// TestAVLAgainstOracle checks both tie modes against the oracle after
// every step of a long random sequence mixing integer and fractional gains.
func TestAVLAgainstOracle(t *testing.T) {
	const n = 120
	for _, mode := range tieModes {
		rng := rand.New(rand.NewSource(42))
		h, o := mode.newHeap(n), newOracle(mode.lifo)
		for step := 0; step < 6000; step++ {
			u := rng.Intn(n)
			switch {
			case !h.Contains(u):
				g := float64(rng.Intn(21) - 10)
				h.Insert(u, g)
				o.insert(u, g)
			case rng.Intn(2) == 0:
				h.Delete(u)
				o.delete(u)
			default:
				g := float64(rng.Intn(21)-10) + rng.Float64()
				h.Insert(u, g)
				o.insert(u, g)
			}
			if err := o.matches(h); err != nil {
				t.Fatalf("%s step %d: %v", mode.name, step, err)
			}
		}
	}
}

// TestAVLTopDownSorted checks, via testing/quick, that TopDown yields
// arbitrary inserted gains in the oracle's order in both tie modes.
func TestAVLTopDownSorted(t *testing.T) {
	for _, mode := range tieModes {
		f := func(gains []float64) bool {
			if len(gains) > 80 {
				gains = gains[:80]
			}
			h, o := mode.newHeap(len(gains)), newOracle(mode.lifo)
			for u, g := range gains {
				h.Insert(u, g)
				o.insert(u, g)
			}
			return o.matches(h) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
	}
}

// TestAVLTopK checks TopK returns exactly the k best nodes.
func TestAVLTopK(t *testing.T) {
	gains := []float64{5, -1, 3, 3, 8, 0, -2, 7, 1, 4}
	want := []int{4, 7, 0, 9} // gains 8, 7, 5, 4
	for _, mode := range tieModes {
		h := mode.newHeap(len(gains))
		for u, g := range gains {
			h.Insert(u, g)
		}
		got := h.TopK(4, nil)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: TopK(4) = %v, want %v", mode.name, got, want)
		}
	}
}

// TestAVLStampLIFO: in a LIFO heap equal gains order most recently
// inserted first, a re-key at an unchanged gain counts as the most recent
// insert, and the stamp never outranks a higher gain.
func TestAVLStampLIFO(t *testing.T) {
	h := NewLIFOGainHeap(5)
	for u := 0; u < 4; u++ {
		h.Insert(u, 1.0) // equal gains, increasing stamps
	}
	h.Insert(4, 2.0)
	order := func() string { return fmt.Sprint(h.TopK(h.Len(), nil)) }
	if got := order(); got != "[4 3 2 1 0]" {
		t.Fatalf("TopDown = %s, want [4 3 2 1 0]", got)
	}
	h.Insert(1, 1.0) // re-key at an equal gain: 1 becomes the newest tie
	if got := order(); got != "[4 1 3 2 0]" {
		t.Fatalf("after re-keying 1: TopDown = %s, want [4 1 3 2 0]", got)
	}
	h.Insert(4, 1.0) // demoted into the tie, and newest
	if got := order(); got != "[4 1 3 2 0]" {
		t.Fatalf("after demoting 4: TopDown = %s, want [4 1 3 2 0]", got)
	}
	h.Insert(0, 1.5)
	if got := order(); got != "[0 4 1 3 2]" {
		t.Fatalf("after promoting 0: TopDown = %s, want [0 4 1 3 2]", got)
	}
}

// TestGainHeapEarlyStopIsPure: a TopDown that stops early leaves the heap
// unchanged (subsequent traversals see the identical order).
func TestGainHeapEarlyStopIsPure(t *testing.T) {
	h := NewGainHeap(64)
	rng := rand.New(rand.NewSource(3))
	for u := 0; u < 64; u++ {
		h.Insert(u, float64(rng.Intn(8)))
	}
	var full []int
	h.TopDown(func(u int, _ float64) bool { full = append(full, u); return true })
	for stop := 0; stop < 10; stop++ {
		seen := 0
		h.TopDown(func(u int, _ float64) bool {
			if u != full[seen] {
				t.Fatalf("after early stops, order diverges at %d", seen)
			}
			seen++
			return seen <= stop
		})
	}
}

// TestGainHeapReinsertUpdatesInPlace: Insert on a present node rekeys it.
func TestGainHeapReinsertUpdatesInPlace(t *testing.T) {
	h := NewGainHeap(8)
	h.Insert(1, 1)
	h.Insert(2, 2)
	h.Insert(3, 3)
	h.Insert(3, -5) // demote the max
	h.Insert(1, 9)  // promote the min
	want := []int{1, 2, 3}
	got := h.TopK(3, nil)
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d after reinserts, want 3", h.Len())
	}
}

// TestSharedGainHeapMatchesGainHeap: a heap over a caller-owned index
// orders exactly like an ID-ordered heap that owns its index.
func TestSharedGainHeapMatchesGainHeap(t *testing.T) {
	const n = 200
	pos := make([]int32, n)
	FillAbsent(pos)
	sh := NewSharedGainHeap(pos)
	o := newOracle(false)
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 2000; op++ {
		u := rng.Intn(n)
		if rng.Intn(3) == 0 && sh.Len() > 0 {
			sh.Delete(u)
			o.delete(u)
		} else {
			g := float64(rng.Intn(20)) - 10
			sh.Insert(u, g)
			o.insert(u, g)
		}
	}
	if err := o.matches(sh); err != nil {
		t.Fatal(err)
	}
}

// TestSharedGainHeapPositions: two heaps over one position index with
// disjoint members — the n-level refiner's two sides. Clearing one resets
// its members' positions and leaves the other's intact.
func TestSharedGainHeapPositions(t *testing.T) {
	const n = 100
	pos := make([]int32, n)
	FillAbsent(pos)
	h := [2]*GainHeap{NewSharedGainHeap(pos), NewSharedGainHeap(pos)}
	o := [2]*oracle{newOracle(false), newOracle(false)}
	for u := 0; u < n; u++ {
		s, g := u%2, float64(u%7)
		if s == 1 {
			g = -g
		}
		h[s].Insert(u, g)
		o[s].insert(u, g)
	}
	// Move every third node to the other side, as a refiner's move does.
	for u := 0; u < n; u += 3 {
		s := u % 2
		h[s].Delete(u)
		o[s].delete(u)
		h[1-s].Insert(u, 0.5)
		o[1-s].insert(u, 0.5)
	}
	for s := range h {
		if err := o[s].matches(h[s]); err != nil {
			t.Fatalf("side %d: %v", s, err)
		}
	}
	h[0].Clear()
	o[0].clear()
	if err := o[0].matches(h[0]); err != nil {
		t.Fatalf("side 0 after Clear: %v", err)
	}
	if err := o[1].matches(h[1]); err != nil {
		t.Fatalf("side 1 after side 0's Clear: %v", err)
	}
	for u := 0; u < n; u++ {
		if _, ok := o[1].live[u]; !ok && pos[u] != -1 {
			t.Fatalf("node %d position %d not reset by Clear", u, pos[u])
		}
	}
	// A cleared heap is reusable. (Node 0 moved to side 1; node 2 stayed.)
	h[0].Insert(2, 3)
	o[0].insert(2, 3)
	if err := o[0].matches(h[0]); err != nil {
		t.Fatalf("side 0 reused: %v", err)
	}
}

// TestSharedGainHeapOrderStrict: equal gains order by ascending ID however
// they were inserted.
func TestSharedGainHeapOrderStrict(t *testing.T) {
	pos := make([]int32, 64)
	FillAbsent(pos)
	h := NewSharedGainHeap(pos)
	o := newOracle(false)
	for u := 63; u >= 0; u-- {
		h.Insert(u, float64(u/8)) // ties within blocks of 8
		o.insert(u, float64(u/8))
	}
	if err := o.matches(h); err != nil {
		t.Fatal(err)
	}
}

// TestGainHeapHeadBoundary drives entries across the boundary between the
// sorted head and the tail on heaps of 0 to 3·headCap entries, in both tie
// modes and on two heaps sharing one position index, and checks every
// read against the oracle after every operation: head entries re-keyed
// onto and below the tail's best, tail entries re-keyed onto and above the
// head's worst, deletes of the best each followed by an insert at the
// bottom, and deletes from the head down to empty.
func TestGainHeapHeadBoundary(t *testing.T) {
	const n = 3 * headCap
	for size := 0; size <= n; size++ {
		pos := make([]int32, n)
		FillAbsent(pos)
		for _, s := range []struct {
			name string
			hs   []*GainHeap
			os   []*oracle
		}{
			{"id", []*GainHeap{NewGainHeap(n)}, []*oracle{newOracle(false)}},
			{"lifo", []*GainHeap{NewLIFOGainHeap(n)}, []*oracle{newOracle(true)}},
			{"shared", []*GainHeap{NewSharedGainHeap(pos), NewSharedGainHeap(pos)}, []*oracle{newOracle(false), newOracle(false)}},
		} {
			side := func(u int) int { return u % len(s.hs) }
			check := func(op string, u int) {
				t.Helper()
				for i, h := range s.hs {
					if err := s.os[i].matches(h); err != nil {
						t.Fatalf("%s, %d nodes, %s %d: heap %d: %v", s.name, size, op, u, i, err)
					}
				}
				for v := 0; v < n; v++ {
					_, in := s.os[side(v)].live[v]
					if s.hs[side(v)].Contains(v) != in {
						t.Fatalf("%s, %d nodes, %s %d: Contains(%d) = %v", s.name, size, op, u, v, !in)
					}
				}
			}
			insert := func(op string, u int, g float64) {
				t.Helper()
				s.hs[side(u)].Insert(u, g)
				s.os[side(u)].insert(u, g)
				check(op, u)
			}
			// Ascending gains: once a head is full, every insert displaces
			// its worst entry into the tail.
			for u := 0; u < size; u++ {
				insert("insert", u, float64(u))
			}
			for k, o := range s.os {
				order := o.sorted()
				split := min(headCap, len(order))
				head, tail := order[:split], order[split:]
				for _, e := range head {
					if len(tail) == 0 {
						insert("re-key in head", int(e.node), e.gain-100)
						continue
					}
					best := o.sorted()[split] // the tail's best
					insert("re-key onto tail best", int(e.node), best.gain)
					insert("re-key below tail best", int(e.node), best.gain-0.5)
				}
				for _, e := range tail {
					worst := o.sorted()[split-1] // the head's worst
					insert("re-key onto head worst", int(e.node), worst.gain)
					insert("re-key above head worst", int(e.node), worst.gain+0.5)
				}
				// Delete the best and re-insert it below every entry, so
				// each delete refills the head and each insert lands in
				// the tail.
				for left := len(o.live); left > 0; left-- {
					order := o.sorted()
					u := int(order[0].node)
					s.hs[k].Delete(u)
					o.delete(u)
					check("delete", u)
					insert("re-insert last", u, order[len(order)-1].gain-1)
				}
				for i := 0; len(o.live) > 0; i++ {
					order := o.sorted()
					u := int(order[i%min(headCap, len(order))].node) // a head slot, front and middle
					s.hs[k].Delete(u)
					o.delete(u)
					check("delete", u)
				}
			}
		}
	}
}

// TestGainHeapWarmZeroAllocs: once a heap's entries and TopDown scratch
// have grown, Insert, Delete, TopK and TopDown allocate nothing.
func TestGainHeapWarmZeroAllocs(t *testing.T) {
	const n = 4 * headCap
	pos := make([]int32, n)
	FillAbsent(pos)
	heaps := map[string]*GainHeap{"id": NewGainHeap(n), "lifo": NewLIFOGainHeap(n), "shared": NewSharedGainHeap(pos)}
	dst := make([]int, 0, n)
	visit := func(int, float64) bool { return true }
	for name, h := range heaps {
		round := func() {
			for u := 0; u < n; u++ {
				h.Insert(u, float64(u%5))
			}
			for u := 0; u < n; u += 3 {
				h.Insert(u, float64(-u))
			}
			dst = h.TopK(headCap/2, dst[:0])
			dst = h.TopK(2*headCap, dst[:0])
			h.TopDown(visit)
			for u := 0; u < n; u += 2 {
				h.Delete(u)
			}
			h.Clear()
		}
		round()
		if a := testing.AllocsPerRun(20, round); a != 0 {
			t.Errorf("%s heap: %v allocations per round, want 0", name, a)
		}
	}
}

// FuzzGainHeap decodes its input into insert, re-key, delete and clear
// operations over 64 node IDs, with gains from a small set so that ties
// are common, and replays them on an ID-ordered heap, a LIFO heap and two
// heaps sharing one position index. Every heap must agree with its oracle
// after every operation. Each operation is three bytes: kind, node, gain;
// the gain byte's top bit picks the side of the shared pair.
func FuzzGainHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 2, 0, 3, 2, 5, 2, 0})
	f.Add([]byte{0, 0, 0x83, 1, 0, 3, 7, 0, 0x80, 0, 9, 4, 6, 9, 0})
	f.Add([]byte{4, 63, 6, 4, 62, 6, 4, 61, 6, 0, 62, 6, 5, 63, 0, 7, 0, 1})
	// More than 2·headCap live nodes on each heap: fill, re-key across the
	// head/tail boundary both ways, delete from the head and the tail.
	var wide []byte
	for u := 0; u < 5*headCap; u++ {
		wide = append(wide, 0, byte(u), byte(u%7)|byte(u%2)<<7)
	}
	for u := 0; u < 5*headCap; u += 3 {
		wide = append(wide, 1, byte(u), byte((u+4)%7)|byte(u%2)<<7)
	}
	for u := 5*headCap - 1; u >= 0; u -= 4 {
		wide = append(wide, 5, byte(u), 0)
	}
	f.Add(wide)
	var ties []byte // gains from two values only, so the boundary splits ties
	for u := 0; u < 3*headCap; u++ {
		ties = append(ties, 2, byte(u), byte(u%2)*5|byte(u%3)<<7)
	}
	for u := 0; u < 3*headCap; u += 2 {
		ties = append(ties, 3, byte(u), byte((u+1)%2)*5, 6, byte(u+1), 0)
	}
	f.Add(ties)
	gains := []float64{-1, -0.5, 0, 0.25, 0.5, 1, 2}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 64
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		idH, lifoH := NewGainHeap(n), NewLIFOGainHeap(n)
		idO, lifoO := newOracle(false), newOracle(true)
		pos := make([]int32, n)
		FillAbsent(pos)
		shared := [2]*GainHeap{NewSharedGainHeap(pos), NewSharedGainHeap(pos)}
		sharedO := [2]*oracle{newOracle(false), newOracle(false)}
		// side reports which shared heap holds u, or -1.
		side := func(u int) int {
			for s, o := range sharedO {
				if _, ok := o.live[u]; ok {
					return s
				}
			}
			return -1
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			kind, u, gb := ops[i]%8, int(ops[i+1])%n, ops[i+2]
			g, s := gains[int(gb&0x7f)%len(gains)], int(gb>>7)
			switch {
			case kind < 5: // insert or re-key
				idH.Insert(u, g)
				idO.insert(u, g)
				lifoH.Insert(u, g)
				lifoO.insert(u, g)
				if side(u) == 1-s { // a node sits on one side only
					shared[1-s].Delete(u)
					sharedO[1-s].delete(u)
				}
				shared[s].Insert(u, g)
				sharedO[s].insert(u, g)
			case kind < 7:
				idH.Delete(u)
				idO.delete(u)
				lifoH.Delete(u)
				lifoO.delete(u)
				if s := side(u); s >= 0 {
					shared[s].Delete(u)
					sharedO[s].delete(u)
				}
			default:
				idH.Clear()
				idO.clear()
				lifoH.Clear()
				lifoO.clear()
				shared[s].Clear()
				sharedO[s].clear()
			}
			for _, c := range []struct {
				name string
				h    *GainHeap
				o    *oracle
			}{
				{"id", idH, idO}, {"lifo", lifoH, lifoO},
				{"shared0", shared[0], sharedO[0]}, {"shared1", shared[1], sharedO[1]},
			} {
				if err := c.o.matches(c.h); err != nil {
					t.Fatalf("op %d (%v): %s heap: %v", i/3, ops[i:i+3], c.name, err)
				}
			}
			for u := 0; u < n; u++ {
				_, inID := idO.live[u]
				_, inLIFO := lifoO.live[u]
				if idH.Contains(u) != inID || lifoH.Contains(u) != inLIFO || (pos[u] >= 0) != (side(u) >= 0) {
					t.Fatalf("op %d (%v): node %d stored where the oracles say it is not, or missing", i/3, ops[i:i+3], u)
				}
			}
		}
	})
}
