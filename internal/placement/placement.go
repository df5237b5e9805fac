// Package placement implements the analytical-placement partitioning
// baseline compared against in Table 3 of the PROP paper (PARABOLI, Riess–
// Doll–Johannes DAC 1994). The substitution (documented in DESIGN.md §3):
// a 1-D quadratic placement is computed by solving the Dirichlet problem
// (L + P)x = P·t with conjugate gradients, where P pins anchor nodes, then
// the node ordering along the placement is swept for the best feasible
// split; a few anchor-refinement iterations pull each side toward its end
// and re-solve, the standard GORDIAN-style iteration PARABOLI builds on.
package placement

import (
	"fmt"
	"math"
	"sort"

	"prop/internal/hypergraph"
	"prop/internal/partition"
	"prop/internal/spectral"
)

const (
	// refinements is the number of anchor-and-resolve iterations after the
	// initial two-point placement.
	refinements = 3
	// cgTol is the relative residual target of the linear solver, which
	// runs at most 4·√n + 200 iterations per solve.
	cgTol = 1e-7
)

// Config controls the partitioner.
type Config struct {
	Balance partition.Balance
}

// Result reports the outcome.
type Result struct {
	Sides   []uint8
	CutCost float64
	CutNets int
	// Placement is the final 1-D coordinate vector.
	Placement []float64
	// CGIterations is the total number of CG iterations spent.
	CGIterations int
}

// Paraboli runs the analytical partitioner.
func Paraboli(h *hypergraph.Hypergraph, cfg Config) (Result, error) {
	if err := cfg.Balance.Validate(); err != nil {
		return Result{}, err
	}
	n := h.NumNodes()
	g := hypergraph.CliqueExpand(h)
	l := spectral.NewLaplacian(g)

	// Two-sweep BFS picks a pseudo-diameter anchor pair; start from a
	// connected node so an isolated node 0 cannot degrade the sweep.
	src := 0
	for src < n-1 && len(g.Adj[src]) == 0 {
		src++
	}
	f1 := farthestFrom(g, src)
	f2 := farthestFrom(g, f1)
	if f1 == f2 {
		// Degenerate (isolated anchor); fall back to any distinct node.
		f2 = (f1 + 1) % n
	}
	if n < 2 {
		return Result{}, fmt.Errorf("placement: need at least two nodes, have %d", n)
	}

	solver := newCG(l, cgTol, 4*int(math.Sqrt(float64(n)))+200)
	anchor := make([]float64, n)
	weight := make([]float64, n)
	for i := range anchor {
		anchor[i] = 0.5
	}
	strong := 1000 * maxDegree(l)
	weight[f1], anchor[f1] = strong, 0
	weight[f2], anchor[f2] = strong, 1

	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5
	}
	if err := solver.solve(x, weight, anchor); err != nil {
		return Result{}, err
	}

	best, bestCut, err := sweepPlacement(h, x, cfg.Balance)
	if err != nil {
		return Result{}, err
	}

	// Anchor refinement: pull each side toward its end with a mild weight
	// and re-solve; keep the best sweep split seen.
	mild := 0.05 * avgDegree(l)
	for it := 0; it < refinements; it++ {
		for u := 0; u < n; u++ {
			weight[u] = mild
			anchor[u] = float64(best[u])
		}
		weight[f1], anchor[f1] = strong, 0
		weight[f2], anchor[f2] = strong, 1
		if err := solver.solve(x, weight, anchor); err != nil {
			return Result{}, err
		}
		sides, cut, err := sweepPlacement(h, x, cfg.Balance)
		if err != nil {
			return Result{}, err
		}
		if cut < bestCut {
			best, bestCut = sides, cut
		}
	}

	b, err := partition.NewBisection(h, best)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Sides:        best,
		CutCost:      bestCut,
		CutNets:      b.CutNets(),
		Placement:    x,
		CGIterations: solver.totalIters,
	}, nil
}

func sweepPlacement(h *hypergraph.Hypergraph, x []float64, bal partition.Balance) ([]uint8, float64, error) {
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return x[order[i]] < x[order[j]] })
	return partition.SweepCut(h, order, bal)
}

// farthestFrom returns the BFS-farthest node from src (unweighted hops).
func farthestFrom(g *hypergraph.Graph, src int) int {
	n := g.NumNodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, n)
	dist[src] = 0
	queue = append(queue, src)
	last := src
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		last = u
		for _, e := range g.Adj[u] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return last
}

func maxDegree(l *spectral.Laplacian) float64 {
	m := 0.0
	for u := 0; u < l.N(); u++ {
		if d := l.Degree(u); d > m {
			m = d
		}
	}
	if m == 0 {
		m = 1
	}
	return m
}

func avgDegree(l *spectral.Laplacian) float64 {
	s := 0.0
	for u := 0; u < l.N(); u++ {
		s += l.Degree(u)
	}
	if l.N() == 0 {
		return 1
	}
	return s / float64(l.N())
}

// cg is a Jacobi-preconditioned conjugate-gradient solver for the SPD
// system (L + diag(w)) x = diag(w)·t.
type cg struct {
	l          *spectral.Laplacian
	tol        float64
	maxIter    int
	totalIters int
	r, p, ap   []float64
}

// newCG returns a solver that stops at relative residual tol or after
// maxIter iterations per solve.
func newCG(l *spectral.Laplacian, tol float64, maxIter int) *cg {
	n := l.N()
	return &cg{
		l:       l,
		tol:     tol,
		maxIter: maxIter,
		r:       make([]float64, n),
		p:       make([]float64, n),
		ap:      make([]float64, n),
	}
}

// mul computes dst = (L + diag(w))·x.
func (c *cg) mul(dst, x, w []float64) {
	c.l.MulVec(dst, x)
	for i := range dst {
		dst[i] += w[i] * x[i]
	}
}

// solve solves in place, starting from the current x (warm start).
func (c *cg) solve(x, w, t []float64) error {
	n := len(x)
	// r = b − A·x with b = diag(w)·t.
	c.mul(c.r, x, w)
	for i := 0; i < n; i++ {
		c.r[i] = w[i]*t[i] - c.r[i]
	}
	// Jacobi preconditioner.
	prec := make([]float64, n)
	for i := 0; i < n; i++ {
		d := c.l.Degree(i) + w[i]
		if d <= 0 {
			d = 1
		}
		prec[i] = 1 / d
	}
	z := make([]float64, n)
	for i := range z {
		z[i] = prec[i] * c.r[i]
	}
	copy(c.p, z)
	rz := dotv(c.r, z)
	b2 := math.Sqrt(dotv(c.r, c.r))
	if b2 == 0 {
		return nil
	}
	for it := 0; it < c.maxIter; it++ {
		c.totalIters++
		c.mul(c.ap, c.p, w)
		pap := dotv(c.p, c.ap)
		if pap <= 0 {
			return fmt.Errorf("placement: CG lost positive definiteness (pᵀAp = %g)", pap)
		}
		alphaStep := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alphaStep * c.p[i]
			c.r[i] -= alphaStep * c.ap[i]
		}
		if math.Sqrt(dotv(c.r, c.r)) <= c.tol*b2 {
			return nil
		}
		for i := 0; i < n; i++ {
			z[i] = prec[i] * c.r[i]
		}
		rzNew := dotv(c.r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			c.p[i] = z[i] + beta*c.p[i]
		}
	}
	return nil // best effort: placement quality degrades gracefully
}

func dotv(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
