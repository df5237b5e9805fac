package flow

import "prop/internal/partition"

// maxflow runs Dinic's algorithm (level-graph BFS + blocking-flow DFS with
// iteration pointers) from vertex 0 to vertex 1 and returns the max-flow
// value at the network's capacity scale.
func (g *network) maxflow() int64 {
	n := len(g.arcs)
	if n < 2 {
		return 0
	}
	level := make([]int32, n)
	iter := make([]int32, n)
	queue := make([]int32, 0, n)
	var total int64
	for {
		for i := range level {
			level[i] = -1
		}
		level[0] = 0
		queue = append(queue[:0], 0)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, a := range g.arcs[u] {
				if a.cap > 0 && level[a.to] < 0 {
					level[a.to] = level[u] + 1
					queue = append(queue, a.to)
				}
			}
		}
		if level[1] < 0 {
			return total
		}
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.augment(0, infCap, level, iter)
			if f == 0 {
				break
			}
			total += f
		}
	}
}

// augment pushes one augmenting path of the blocking flow along the level
// graph, returning the pushed amount (0 when u is a dead end).
func (g *network) augment(u int32, limit int64, level, iter []int32) int64 {
	if u == 1 {
		return limit
	}
	for ; iter[u] < int32(len(g.arcs[u])); iter[u]++ {
		a := &g.arcs[u][iter[u]]
		if a.cap <= 0 || level[a.to] != level[u]+1 {
			continue
		}
		pushed := limit
		if a.cap < pushed {
			pushed = a.cap
		}
		if d := g.augment(a.to, pushed, level, iter); d > 0 {
			a.cap -= d
			g.arcs[a.to][a.rev].cap += d
			return d
		}
	}
	level[u] = -1 // dead end: prune for the rest of this phase
	return 0
}

// minCutMoves selects the most balanced minimum cut of the solved network
// and returns the corridor nodes whose side it flips (in corridor order).
//
// After max flow, the residual graph splits into the source side (reachable
// from s), the sink side (co-reachable to t) and free vertices in between.
// Any source set that is residual-closed — contains s's side and, of the
// free region, a union of strongly connected components closed under
// residual successors — induces a cut of exactly the max-flow value.
// Tarjan's algorithm emits SCCs in reverse topological order, so the
// successor-closed unions are exactly the prefixes of its emission order:
// the selector scores every prefix against side 0's balance window
// [lo, hi] and keeps the feasible one closest to the window's midpoint
// (ties to the shortest prefix, which is deterministic).
func (g *network) minCutMoves(b *partition.Bisection, c corridor, lo, hi int64) ([]int32, bool) {
	n := len(g.arcs)
	if n < 2 {
		return nil, false
	}
	const (
		stateFree = iota
		stateSource
		stateSink
	)
	state := make([]uint8, n)
	queue := make([]int32, 0, n)

	// Source side: residual-forward reachability from s.
	state[0] = stateSource
	queue = append(queue, 0)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, a := range g.arcs[u] {
			if a.cap > 0 && state[a.to] == stateFree {
				state[a.to] = stateSource
				queue = append(queue, a.to)
			}
		}
	}
	// Sink side: residual-backward reachability to t (v precedes u when the
	// arc v→u has residual capacity, i.e. the reverse of u's entry for v).
	state[1] = stateSink
	queue = append(queue[:0], 1)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, a := range g.arcs[u] {
			if state[a.to] == stateFree && g.arcs[a.to][a.rev].cap > 0 {
				state[a.to] = stateSink
				queue = append(queue, a.to)
			}
		}
	}

	comp, ncomp := g.freeSCC(state)

	h := b.H
	// Weight on side 0 of the tightest candidate: exterior side-0 weight
	// plus source-side corridor nodes. Each further prefix of the SCC
	// emission order adds its component's corridor weight.
	w0 := b.SideWeight(0) - c.weight[0]
	compW := make([]int64, ncomp)
	for i, u := range c.nodes {
		v := int32(g.nodeV + i)
		switch {
		case state[v] == stateSource:
			w0 += h.NodeWeight(int(u))
		case state[v] == stateFree:
			compW[comp[v]] += h.NodeWeight(int(u))
		}
	}
	bestK, bestDist := -1, int64(0)
	cum := w0
	for k := 0; k <= ncomp; k++ {
		if k > 0 {
			cum += compW[k-1]
		}
		if cum < lo || cum > hi {
			continue
		}
		dist := 2*cum - (lo + hi)
		if dist < 0 {
			dist = -dist
		}
		if bestK < 0 || dist < bestDist {
			bestK, bestDist = k, dist
		}
	}
	if bestK < 0 {
		return nil, false
	}
	var moved []int32
	for i, u := range c.nodes {
		v := int32(g.nodeV + i)
		side0 := state[v] == stateSource ||
			(state[v] == stateFree && int(comp[v]) < bestK)
		if side0 != (b.Side(int(u)) == 0) {
			moved = append(moved, u)
		}
	}
	return moved, true
}

// freeSCC runs iterative Tarjan over the free vertices of the residual
// graph (arcs with positive residual capacity between free vertices) and
// returns per-vertex component IDs numbered in emission order — reverse
// topological order of the condensation — plus the component count.
// Vertices are visited in ascending ID order, so the numbering is
// deterministic.
func (g *network) freeSCC(state []uint8) ([]int32, int) {
	const stateFree = 0
	n := len(g.arcs)
	comp := make([]int32, n)
	disc := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range comp {
		comp[i] = -1
		disc[i] = -1
	}
	var (
		next  int32
		ncomp int32
		stack []int32 // Tarjan vertex stack
	)
	type frame struct {
		v  int32
		ai int32
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if state[root] != stateFree || disc[root] >= 0 {
			continue
		}
		frames = append(frames[:0], frame{v: int32(root)})
		disc[root] = next
		low[root] = next
		next++
		stack = append(stack[:0], int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for ; f.ai < int32(len(g.arcs[f.v])); f.ai++ {
				a := g.arcs[f.v][f.ai]
				if a.cap <= 0 || state[a.to] != stateFree {
					continue
				}
				if disc[a.to] < 0 {
					f.ai++
					frames = append(frames, frame{v: a.to})
					disc[a.to] = next
					low[a.to] = next
					next++
					stack = append(stack, a.to)
					onStack[a.to] = true
					advanced = true
					break
				}
				if onStack[a.to] && low[f.v] > disc[a.to] {
					low[f.v] = disc[a.to]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[p.v] > low[v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == disc[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, int(ncomp)
}
