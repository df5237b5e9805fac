// Package multiway implements recursive k-way partitioning on top of any
// 2-way partitioner — the standard construction the paper's introduction
// describes ("each subset is further partitioned into two smaller subsets
// with a minimum cut, and so forth") and one of the §5 extensions.
package multiway

import (
	"context"
	"fmt"

	"prop/internal/engine"
	"prop/internal/hypergraph"
	"prop/internal/partition"
)

// Bipartitioner produces a side assignment for a (sub)hypergraph. seed
// varies per recursion node so multi-start partitioners diversify. ctx
// carries cancellation from the recursive driver.
type Bipartitioner func(ctx context.Context, h *hypergraph.Hypergraph, bal partition.Balance, seed int64) ([]uint8, error)

// Config controls the recursive driver.
type Config struct {
	// K is the number of parts, any K ≥ 2. Each bisection splits a k-part
	// subproblem into ⌈k/2⌉ parts on side 0 and ⌊k/2⌋ on side 1.
	K int
	// Balance is the window of an even split. An odd split scales it by
	// 2·⌈k/2⌉/k, so side 0 aims at ⌈k/2⌉/k of the subproblem's weight.
	Balance partition.Balance
	// Cut is the 2-way engine.
	Cut  Bipartitioner
	Seed int64
	// Workers bounds concurrent recursive subproblems: after each
	// bisection the two halves are independent, so with Workers > 1 they
	// recurse in parallel (deterministically — each subproblem derives its
	// seed from its position in the recursion tree and writes a disjoint
	// slice of the part vector). 0 selects GOMAXPROCS, 1 recurses
	// sequentially.
	Workers int
}

// Result is a k-way partition.
type Result struct {
	// Parts[u] is the part index (0..K−1) of node u.
	Parts []int
	// CutNets counts nets spanning ≥ 2 parts; CutCost sums their costs.
	CutNets int
	CutCost float64
}

// Partition recursively bisects h into cfg.K parts.
func Partition(h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	return PartitionCtx(context.Background(), h, cfg)
}

// PartitionCtx recursively bisects h into cfg.K parts, honoring ctx
// cancellation between (and, through cfg.Cut, within) bisections.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	if cfg.K < 2 {
		return Result{}, fmt.Errorf("multiway: K=%d, want ≥ 2", cfg.K)
	}
	if cfg.K > h.NumNodes() {
		return Result{}, fmt.Errorf("multiway: K=%d exceeds the node count %d: every part needs a node", cfg.K, h.NumNodes())
	}
	if cfg.Cut == nil {
		return Result{}, fmt.Errorf("multiway: nil bipartitioner")
	}
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	parts := make([]int, h.NumNodes())
	nodes := make([]int, h.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	if err := recurse(ctx, h, nodes, 0, cfg.K, cfg, parts); err != nil {
		return Result{}, err
	}
	cutNets, cutCost := EvaluateKWay(h, parts)
	return Result{Parts: parts, CutNets: cutNets, CutCost: cutCost}, nil
}

func recurse(ctx context.Context, h *hypergraph.Hypergraph, nodes []int, base, k int, cfg Config, parts []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if k == 1 {
		for _, u := range nodes {
			parts[u] = base
		}
		return nil
	}
	k0 := (k + 1) / 2
	f := float64(2*k0) / float64(k) // exactly 1 for even k
	bal := partition.Balance{R1: cfg.Balance.R1 * f, R2: cfg.Balance.R2 * f}
	if err := bal.Validate(); err != nil {
		return fmt.Errorf("multiway: K=%d: splitting %d parts %d+%d: %w", cfg.K, k, k0, k-k0, err)
	}
	sub, back, err := Induce(h, nodes)
	if err != nil {
		return err
	}
	seed := cfg.Seed*1000003 + int64(base)*8191 + int64(k)
	sides, err := cfg.Cut(ctx, sub, bal, seed)
	if err != nil {
		return err
	}
	if len(sides) != sub.NumNodes() {
		return fmt.Errorf("multiway: bipartitioner returned %d sides for %d nodes", len(sides), sub.NumNodes())
	}
	var left, right []int
	for i, s := range sides {
		if s == 0 {
			left = append(left, back[i])
		} else {
			right = append(right, back[i])
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return fmt.Errorf("multiway: degenerate bisection at part base %d", base)
	}
	// The two halves are independent subproblems over disjoint node sets
	// writing disjoint entries of parts — recurse concurrently.
	return engine.Pair(ctx, cfg.Workers,
		func(ctx context.Context) error { return recurse(ctx, h, left, base, k0, cfg, parts) },
		func(ctx context.Context) error { return recurse(ctx, h, right, base+k0, k-k0, cfg, parts) })
}

// Induce builds the subhypergraph on the given node subset: nets keep only
// their in-subset pins, nets left with fewer than two pins disappear. It
// returns the sub-hypergraph and the mapping from sub node IDs back to the
// original IDs.
func Induce(h *hypergraph.Hypergraph, nodes []int) (*hypergraph.Hypergraph, []int, error) {
	fwd := make(map[int]int, len(nodes))
	back := make([]int, len(nodes))
	b := hypergraph.NewBuilder()
	for i, u := range nodes {
		if _, dup := fwd[u]; dup {
			return nil, nil, fmt.Errorf("multiway: duplicate node %d in subset", u)
		}
		fwd[u] = i
		back[i] = u
		b.AddNode(h.NodeName(u), h.NodeWeight(u))
	}
	seen := make(map[int32]bool, 64)
	pins := make([]int, 0, 16)
	for _, u := range nodes {
		for _, e := range h.NetsOf(u) {
			if seen[e] {
				continue
			}
			seen[e] = true
			pins = pins[:0]
			for _, v := range h.Net(int(e)) {
				if j, ok := fwd[int(v)]; ok {
					pins = append(pins, j)
				}
			}
			if len(pins) >= 2 {
				if err := b.AddNet(h.NetName(int(e)), h.NetCost(int(e)), pins...); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, back, nil
}

// EvaluateKWay counts and prices the nets spanning at least two parts.
func EvaluateKWay(h *hypergraph.Hypergraph, parts []int) (cutNets int, cutCost float64) {
	for e := 0; e < h.NumNets(); e++ {
		ps := h.Net(e)
		first := parts[ps[0]]
		for _, u := range ps[1:] {
			if parts[u] != first {
				cutNets++
				cutCost += h.NetCost(e)
				break
			}
		}
	}
	return cutNets, cutCost
}

// PartSizes returns the node-weight of each part.
func PartSizes(h *hypergraph.Hypergraph, parts []int, k int) []int64 {
	sizes := make([]int64, k)
	for u, p := range parts {
		sizes[p] += h.NodeWeight(u)
	}
	return sizes
}
