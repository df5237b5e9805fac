package spectral

import (
	"fmt"
	"math"
	"math/rand"
)

// Eigenpairs holds the k smallest non-trivial eigenpairs of a Laplacian:
// Values ascending, Vectors[j] the unit eigenvector for Values[j]. The
// trivial constant eigenvector (eigenvalue 0) is deflated away.
type Eigenpairs struct {
	Values  []float64
	Vectors [][]float64
	// Steps is the Krylov dimension actually used.
	Steps int
}

// SmallestEigenpairs computes the k smallest non-trivial eigenpairs of L
// with Lanczos iteration: full reorthogonalization, deflation of the
// all-ones null vector, and adaptive basis growth — after every chunk of
// steps the tridiagonal Ritz problem is solved and the classic residual
// bound |β_m·s_mj| decides convergence of the wanted pairs. The Krylov
// dimension is capped at min(n−1, max(300, 8k)). The computation is
// deterministic in seed.
func SmallestEigenpairs(l *Laplacian, k int, seed int64) (*Eigenpairs, error) {
	n := l.N()
	if k < 1 || k > n-1 {
		return nil, fmt.Errorf("spectral: k=%d out of range [1, %d]", k, n-1)
	}
	maxSteps := max(300, 8*k)
	if maxSteps > n-1 {
		maxSteps = n - 1
	}
	if maxSteps < k {
		maxSteps = k
	}
	rng := rand.New(rand.NewSource(seed))
	ones := 1 / math.Sqrt(float64(n))

	basis := make([][]float64, 0, maxSteps)
	alpha := make([]float64, 0, maxSteps)
	beta := make([]float64, 0, maxSteps)

	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	deflate(v, ones)
	if nrm := normalize(v); nrm == 0 {
		return nil, fmt.Errorf("spectral: degenerate start vector")
	}
	w := make([]float64, n)

	chunk := 2 * k
	if chunk < 40 {
		chunk = 40
	}
	const tol = 1e-9
	collapsed := false

	var d, e, z []float64
	m := 0
	for m < maxSteps && !collapsed {
		target := m + chunk
		if target > maxSteps {
			target = maxSteps
		}
		for m < target {
			vj := append([]float64(nil), v...)
			basis = append(basis, vj)
			l.MulVec(w, vj)
			a := dot(w, vj)
			alpha = append(alpha, a)
			axpy(w, -a, vj)
			if m > 0 {
				axpy(w, -beta[m-1], basis[m-1])
			}
			deflate(w, ones)
			for _, bb := range basis {
				axpy(w, -dot(w, bb), bb)
			}
			nrm := norm(w)
			if nrm < 1e-12 {
				// Invariant subspace: restart with a fresh random direction.
				for i := range w {
					w[i] = rng.Float64() - 0.5
				}
				deflate(w, ones)
				for _, bb := range basis {
					axpy(w, -dot(w, bb), bb)
				}
				nrm = norm(w)
				if nrm < 1e-12 {
					collapsed = true
					m++
					beta = append(beta, 0)
					break
				}
			}
			beta = append(beta, nrm)
			for i := range v {
				v[i] = w[i] / nrm
			}
			m++
		}
		if m < k {
			continue
		}
		// Ritz step on the current tridiagonal.
		d = append(d[:0], alpha[:m]...)
		e = append(e[:0], beta[:m]...)
		if len(e) < m {
			e = append(e, 0)
		}
		e[m-1] = 0
		if cap(z) < m*m {
			z = make([]float64, m*m)
		}
		z = z[:m*m]
		for i := range z {
			z[i] = 0
		}
		for i := 0; i < m; i++ {
			z[i*m+i] = 1
		}
		if err := tql2(d, e, z, m); err != nil {
			return nil, err
		}
		if collapsed || m == n-1 || m == maxSteps {
			break
		}
		// Residual bounds for the k smallest Ritz pairs.
		bm := beta[m-1]
		converged := true
		for j := 0; j < k; j++ {
			if math.Abs(bm*z[(m-1)*m+j]) > tol*(1+math.Abs(d[j])) {
				converged = false
				break
			}
		}
		if converged {
			break
		}
	}

	if m < k {
		return nil, fmt.Errorf("spectral: Krylov space collapsed at dimension %d < k=%d", m, k)
	}
	out := &Eigenpairs{
		Values:  append([]float64(nil), d[:k]...),
		Vectors: make([][]float64, k),
		Steps:   m,
	}
	for j := 0; j < k; j++ {
		vec := make([]float64, n)
		for i := 0; i < m; i++ {
			axpy(vec, z[i*m+j], basis[i])
		}
		normalize(vec)
		out.Vectors[j] = vec
	}
	return out, nil
}

// Residual returns ‖L·v − λ·v‖₂ for an eigenpair, for accuracy checks.
func Residual(l *Laplacian, lambda float64, v []float64) float64 {
	w := make([]float64, l.N())
	l.MulVec(w, v)
	axpy(w, -lambda, v)
	return norm(w)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func normalize(a []float64) float64 {
	n := norm(a)
	if n > 0 {
		for i := range a {
			a[i] /= n
		}
	}
	return n
}

// axpy computes dst += s·x.
func axpy(dst []float64, s float64, x []float64) {
	for i := range dst {
		dst[i] += s * x[i]
	}
}

// deflate removes the component of a along the constant vector with entry
// value c (= 1/√n).
func deflate(a []float64, c float64) {
	var s float64
	for _, x := range a {
		s += x * c
	}
	for i := range a {
		a[i] -= s * c
	}
}
