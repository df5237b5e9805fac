package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// ctrModel is the trivially-correct mirror of Contracted: nets as pin
// sets, node→net sets, weights — all maps, no arenas, no mementos. The
// fuzz and property tests replay every Contract/Uncontract against it and
// require the active view to agree exactly.
type ctrModel struct {
	nets   []map[int32]bool // active pins per net
	nodes  []map[int32]bool // active nets per node (frozen at death)
	weight []int64
	alive  []bool
	stack  []refUndo
}

type refUndo struct {
	u, v      int32
	weightV   int64
	caseA     []int32 // nets v was removed from
	caseB     []int32 // live nets rewritten v→u and adopted by u
	caseBDead []int32 // dead nets rewritten v→u without adoption
}

func newCtrModel(h *Hypergraph) *ctrModel {
	r := &ctrModel{
		nets:   make([]map[int32]bool, h.NumNets()),
		nodes:  make([]map[int32]bool, h.NumNodes()),
		weight: make([]int64, h.NumNodes()),
		alive:  make([]bool, h.NumNodes()),
	}
	for e := 0; e < h.NumNets(); e++ {
		r.nets[e] = make(map[int32]bool)
		for _, p := range h.Net(e) {
			r.nets[e][p] = true
		}
	}
	for u := 0; u < h.NumNodes(); u++ {
		r.nodes[u] = make(map[int32]bool)
		for _, e := range h.NetsOf(u) {
			r.nodes[u][e] = true
		}
		r.weight[u] = h.NodeWeight(u)
		r.alive[u] = true
	}
	return r
}

func (r *ctrModel) contract(u, v int32) {
	undo := refUndo{u: u, v: v, weightV: r.weight[v]}
	for e := range r.nodes[v] {
		if r.nets[e][u] {
			delete(r.nets[e], v)
			undo.caseA = append(undo.caseA, e)
		} else {
			delete(r.nets[e], v)
			r.nets[e][u] = true
			if len(r.nets[e]) >= 2 {
				// Live nets are adopted into u's list; dead ones get
				// the pin handoff only, mirroring Contracted.
				r.nodes[u][e] = true
				undo.caseB = append(undo.caseB, e)
			} else {
				undo.caseBDead = append(undo.caseBDead, e)
			}
		}
	}
	r.weight[u] += r.weight[v]
	r.alive[v] = false
	r.stack = append(r.stack, undo)
}

func (r *ctrModel) uncontract() {
	undo := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	for _, e := range undo.caseA {
		r.nets[e][undo.v] = true
	}
	for _, e := range undo.caseB {
		delete(r.nets[e], undo.u)
		r.nets[e][undo.v] = true
		delete(r.nodes[undo.u], e)
	}
	for _, e := range undo.caseBDead {
		delete(r.nets[e], undo.u)
		r.nets[e][undo.v] = true
	}
	r.weight[undo.u] -= undo.weightV
	r.alive[undo.v] = true
}

// checkAgainst verifies the Contracted view matches the reference model's
// active state exactly (sets, sizes, weights, liveness).
func (r *ctrModel) checkAgainst(t *testing.T, c *Contracted) {
	t.Helper()
	for e := range r.nets {
		if got, want := c.NetSize(e), len(r.nets[e]); got != want {
			t.Fatalf("net %d active size = %d, reference %d", e, got, want)
		}
		seen := make(map[int32]bool)
		for _, p := range c.Net(e) {
			if seen[p] {
				t.Fatalf("net %d lists pin %d twice", e, p)
			}
			seen[p] = true
			if !r.nets[e][p] {
				t.Fatalf("net %d lists pin %d, reference does not", e, p)
			}
		}
	}
	for u := range r.nodes {
		if c.Alive(u) != r.alive[u] {
			t.Fatalf("node %d alive = %v, reference %v", u, c.Alive(u), r.alive[u])
		}
		if c.NodeWeight(u) != r.weight[u] {
			t.Fatalf("node %d weight = %d, reference %d", u, c.NodeWeight(u), r.weight[u])
		}
		if !r.alive[u] {
			continue
		}
		seen := make(map[int32]bool)
		for _, e := range c.NetsOf(u) {
			if seen[e] {
				t.Fatalf("node %d lists net %d twice", u, e)
			}
			seen[e] = true
			if !r.nodes[u][e] {
				t.Fatalf("node %d lists net %d, reference does not", u, e)
			}
		}
		if len(seen) != len(r.nodes[u]) {
			t.Fatalf("node %d lists %d nets, reference %d", u, len(seen), len(r.nodes[u]))
		}
	}
}

// randomCircuit builds a connected-ish random circuit with ≤ n nodes from
// the given source bytes (the fuzz corpus shape).
func circuitFromBytes(data []byte) *Hypergraph {
	if len(data) < 4 {
		return nil
	}
	n := int(data[0])%62 + 2 // 2..63 nodes
	b := NewBuilder()
	b.EnsureNodes(n)
	i := 1
	nets := 0
	for i+1 < len(data) && nets < 48 {
		sz := int(data[i])%5 + 2
		i++
		pins := make([]int, 0, sz)
		for j := 0; j < sz && i < len(data); j++ {
			pins = append(pins, int(data[i])%n)
			i++
		}
		if len(pins) < 2 {
			break
		}
		if err := b.AddNet("", 1, pins...); err != nil {
			return nil
		}
		nets++
	}
	h, err := b.Build()
	if err != nil || h.NumNets() == 0 {
		return nil
	}
	return h
}

// driveInterleaving replays op bytes as contract/uncontract against both
// the view and the reference model, checking agreement after every step,
// and finishes with a full unwind plus an exact-restore check.
func driveInterleaving(t *testing.T, h *Hypergraph, inPlace bool, ops []byte) {
	t.Helper()
	orig := h.Clone()
	var c *Contracted
	var err error
	if inPlace {
		c, err = NewContractedInPlace(h)
	} else {
		c, err = NewContracted(h)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref := newCtrModel(orig)
	rng := rand.New(rand.NewSource(1))
	scratch := make([]int32, 0, 16)
	for _, op := range ops {
		if op%3 != 0 && c.AliveCount() > 1 {
			// Contract a random alive pair (u, v), u ≠ v.
			var ids []int32
			for x := 0; x < c.NumNodes(); x++ {
				if c.Alive(x) {
					ids = append(ids, int32(x))
				}
			}
			u := ids[int(op/3)%len(ids)]
			v := ids[rng.Intn(len(ids))]
			if u == v {
				v = ids[(int(op/3)+1)%len(ids)]
			}
			if u == v {
				continue
			}
			c.Contract(u, v)
			ref.contract(u, v)
		} else if c.Depth() > 0 {
			_, _ = c.Uncontract(scratch[:0])
			ref.uncontract()
		}
		ref.checkAgainst(t, c)
	}
	for c.Depth() > 0 {
		_, _ = c.Uncontract(scratch[:0])
		ref.uncontract()
		ref.checkAgainst(t, c)
	}
	// Full unwind must restore the arenas bit-for-bit: per-net pin order,
	// weights, adjacency — not just set equality.
	restored := c.h
	if !inPlace {
		// Copy mode leaves h untouched by construction; check the view's
		// arrays against it instead.
		for e := 0; e < orig.NumNets(); e++ {
			got := c.Net(e)
			want := orig.Net(e)
			if len(got) != len(want) {
				t.Fatalf("net %d has %d pins after unwind, want %d", e, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("net %d pin order diverged at %d: %d != %d", e, i, got[i], want[i])
				}
			}
		}
		for u := 0; u < orig.NumNodes(); u++ {
			if c.NodeWeight(u) != orig.NodeWeight(u) {
				t.Fatalf("node %d weight %d after unwind, want %d", u, c.NodeWeight(u), orig.NodeWeight(u))
			}
		}
		return
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("in-place unwind left an invalid hypergraph: %v", err)
	}
	for e := 0; e < orig.NumNets(); e++ {
		got, want := restored.Net(e), orig.Net(e)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("net %d pin order diverged at %d: %d != %d", e, i, got[i], want[i])
			}
		}
	}
	for u := 0; u < orig.NumNodes(); u++ {
		if restored.NodeWeight(u) != orig.NodeWeight(u) {
			t.Fatalf("node %d weight %d after unwind, want %d", u, restored.NodeWeight(u), orig.NodeWeight(u))
		}
	}
}

func TestContractUncontractSmall(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a", 1)
	b.AddNode("b", 2)
	b.AddNode("c", 3)
	b.AddNode("d", 1)
	for _, pins := range [][]int{{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}} {
		if err := b.AddNet("", 1, pins...); err != nil {
			t.Fatal(err)
		}
	}
	h := b.MustBuild()
	for _, inPlace := range []bool{false, true} {
		driveInterleaving(t, h.Clone(), inPlace, []byte{1, 2, 4, 0, 5, 7, 0, 0, 8})
	}
}

func TestContractUncontractRandomInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		data := make([]byte, 64)
		rng.Read(data)
		h := circuitFromBytes(data)
		if h == nil {
			continue
		}
		ops := make([]byte, 48)
		rng.Read(ops)
		driveInterleaving(t, h, trial%2 == 0, ops)
	}
}

func FuzzContractUncontract(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 2, 4, 5, 1, 0, 7}, []byte{1, 2, 0, 4, 5, 0})
	f.Add([]byte{16, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{9, 9, 9, 0, 0, 0, 3, 6})
	f.Fuzz(func(t *testing.T, circuit, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		h := circuitFromBytes(circuit)
		if h == nil {
			t.Skip()
		}
		driveInterleaving(t, h, len(circuit)%2 == 0, ops)
	})
}

// TestContractedDeepChain exercises pathological adoption chains: a long
// path graph contracted end-to-end so one survivor adopts every net,
// forcing repeated overflow relocation through the size classes.
func TestContractedDeepChain(t *testing.T) {
	const n = 300
	b := NewBuilder()
	for i := 0; i < n-1; i++ {
		if err := b.AddNet("", 1, i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	h := b.MustBuild()
	orig := h.Clone()
	c, err := NewContractedInPlace(h)
	if err != nil {
		t.Fatal(err)
	}
	ref := newCtrModel(orig)
	for v := 1; v < n; v++ {
		c.Contract(0, int32(v))
		ref.contract(0, int32(v))
	}
	ref.checkAgainst(t, c)
	if c.AliveCount() != 1 {
		t.Fatalf("AliveCount = %d, want 1", c.AliveCount())
	}
	scratch := make([]int32, 0, 8)
	for c.Depth() > 0 {
		_, _ = c.Uncontract(scratch[:0])
		ref.uncontract()
	}
	ref.checkAgainst(t, c)
	if err := h.Validate(); err != nil {
		t.Fatalf("restored graph invalid: %v", err)
	}
	for e := 0; e < orig.NumNets(); e++ {
		got, want := h.Net(e), orig.Net(e)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("net %d pin order diverged after unwind", e)
			}
		}
	}
}

// TestCoarseGraph checks the materialized coarse graph against a manual
// contraction: pins remap to compact alive IDs, weights merge, dead nets
// vanish.
func TestCoarseGraph(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode(fmt.Sprintf("v%d", i), int64(i+1))
	}
	for _, pins := range [][]int{{0, 1}, {1, 2, 3}, {3, 4}, {4, 5}, {0, 5}} {
		if err := b.AddNet("", 1, pins...); err != nil {
			t.Fatal(err)
		}
	}
	h := b.MustBuild()
	c, err := NewContracted(h)
	if err != nil {
		t.Fatal(err)
	}
	c.Contract(0, 1) // net {0,1} dies
	c.Contract(4, 5) // net {4,5} dies
	cg, aliveIDs, err := c.CoarseGraph()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(aliveIDs); got != "[0 2 3 4]" {
		t.Fatalf("aliveIDs = %s, want [0 2 3 4]", got)
	}
	if cg.NumNodes() != 4 || cg.NumNets() != 3 {
		t.Fatalf("coarse graph %d nodes / %d nets, want 4 / 3", cg.NumNodes(), cg.NumNets())
	}
	// weights: node 0 absorbed 1 (1+2=3), node 4 absorbed 5 (5+6=11).
	wants := []int64{3, 3, 4, 11}
	for i, w := range wants {
		if cg.NodeWeight(i) != w {
			t.Fatalf("coarse node %d weight %d, want %d", i, cg.NodeWeight(i), w)
		}
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}
