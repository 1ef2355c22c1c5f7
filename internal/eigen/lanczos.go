package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bootes/internal/faultinject"
)

// Options configures the Lanczos eigensolver. The zero-value defaults below
// aim at accurate eigenpairs; the planner's clustering solves do not use
// them but resolve their own looser defaults in package core
// (clusterEigenOptions). Of the planner's solves, only core's k sweep and
// the auto-k embedding solve run at these.
type Options struct {
	// K is the number of wanted eigenpairs (the largest eigenvalues of the
	// operator).
	K int
	// MaxBasis bounds the Krylov basis size per restart cycle.
	// 0 selects max(4K+8, 48), clamped to the operator dimension.
	MaxBasis int
	// Tol is the Ritz-residual tolerance relative to the spectral scale.
	// 0 selects 1e-8.
	Tol float64
	// MaxRestarts bounds thick-restart cycles. 0 selects 40.
	MaxRestarts int
	// Seed seeds the random start vector for determinism.
	Seed int64
	// DenseFallbackDim: problems of dimension ≤ this are solved densely with
	// Jacobi rotations instead of Lanczos. 0 selects 96.
	DenseFallbackDim int
	// LocalReorth switches from full reorthogonalization to the classic
	// three-term recurrence (orthogonalize only against the two previous
	// basis vectors, plus the retained Ritz block right after a restart).
	// Cheaper per step, but floating-point drift re-introduces converged
	// directions ("ghost" eigenvalues) on clustered spectra — the ablation
	// that motivates full reorthogonalization as the default.
	LocalReorth bool
}

func (o Options) withDefaults(n int) Options {
	if o.MaxBasis == 0 {
		o.MaxBasis = 4*o.K + 8
		if o.MaxBasis < 48 {
			o.MaxBasis = 48
		}
	}
	if o.MaxBasis > n {
		o.MaxBasis = n
	}
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 40
	}
	if o.DenseFallbackDim == 0 {
		o.DenseFallbackDim = 96
	}
	return o
}

// Result holds converged eigenpairs of the operator, largest eigenvalue
// first. Vectors[i] is the unit eigenvector for Values[i]; on the Lanczos
// path its largest-magnitude entry is positive (see canonicalSign).
type Result struct {
	Values  []float64
	Vectors [][]float64
	// MatVecs is the number of operator applications performed — the Krylov
	// iteration count t in the paper's Table 2 complexity analysis.
	MatVecs int
	// Converged reports whether all K pairs met the residual tolerance.
	// When false the best available Ritz approximations are returned, which
	// is almost always sufficient for clustering purposes.
	Converged bool
}

// LargestContext computes the K algebraically largest eigenpairs of a
// symmetric operator using thick-restart Lanczos with full
// reorthogonalization. For tiny problems it falls back to a dense Jacobi
// solve. The context is checked before every operator application (the unit
// of Lanczos progress) and once per restart cycle, so a cancelled solve
// returns ctx.Err() within one matvec of the cancellation.
func LargestContext(ctx context.Context, op Operator, opts Options) (*Result, error) {
	n := op.Dim()
	if opts.K <= 0 {
		return nil, errors.New("eigen: K must be positive")
	}
	if opts.K > n {
		return nil, fmt.Errorf("eigen: K=%d exceeds dimension %d", opts.K, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if faultinject.Fire(faultinject.EigenNoConverge) {
		return nil, ErrNoConverge
	}
	opts = opts.withDefaults(n)
	if n <= opts.DenseFallbackDim || opts.MaxBasis >= n {
		return denseLargest(ctx, op, opts.K)
	}
	return thickRestartLanczos(ctx, op, opts)
}

// denseLargest materializes the operator column by column and solves with
// Jacobi rotations.
func denseLargest(ctx context.Context, op Operator, k int) (*Result, error) {
	n := op.Dim()
	a := make([]float64, n*n)
	x := make([]float64, n)
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
		if err := op.Apply(x, y); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			a[i*n+j] = y[i]
		}
	}
	// Symmetrize to wash out round-off asymmetry.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := (a[i*n+j] + a[j*n+i]) / 2
			a[i*n+j], a[j*n+i] = m, m
		}
	}
	eig, v, err := JacobiEigen(a, n)
	if err != nil {
		return nil, err
	}
	res := &Result{MatVecs: n, Converged: true}
	for i := 0; i < k; i++ {
		col := n - 1 - i // ascending order → take from the back
		res.Values = append(res.Values, eig[col])
		vec := make([]float64, n)
		for row := 0; row < n; row++ {
			vec[row] = v[row*n+col]
		}
		res.Vectors = append(res.Vectors, vec)
	}
	return res, nil
}

// thickRestartLanczos implements the Wu–Simon thick-restart scheme. The
// basis is kept fully orthogonal; after each cycle the top Ritz vectors are
// retained and the projected problem becomes arrowhead-plus-tridiagonal,
// which we solve densely (it is at most MaxBasis × MaxBasis) by Householder
// tridiagonalization and QL.
//
// The dense work on length-n vectors — reorthogonalization and Ritz-vector
// formation — runs through the row-chunked krylovWork kernels, so it is
// spread over the worker pool and bit-identical for any worker count; the
// only length-n storage is the workspace and the returned vectors.
func thickRestartLanczos(ctx context.Context, op Operator, opts Options) (*Result, error) {
	n := op.Dim()
	m := opts.MaxBasis
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x1a2c3))
	ws := newKrylovWork(n, m)

	// The basis holds cnt ≤ m+1 orthonormal vectors of length n.
	randomUnit(rng, ws.vec(ws.basis, 0))
	cnt := 1

	// proj is the projected symmetric matrix in the current basis,
	// stored dense row-major (size grows with the basis).
	proj := make([]float64, (m+1)*(m+1))
	at := func(i, j int) float64 { return proj[i*(m+1)+j] }
	set := func(i, j int, x float64) {
		proj[i*(m+1)+j] = x
		proj[j*(m+1)+i] = x
	}
	subBuf := make([]float64, m*m)

	matvecs := 0
	kept := 0 // size of the retained Ritz block after the latest restart

	for restart := 0; restart <= opts.MaxRestarts; restart++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Extend the basis with Lanczos steps from position cnt-1. The next
		// slot receives Op·v_j and is orthogonalized in place.
		for cnt <= m {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			j := cnt - 1
			w := ws.vec(ws.basis, cnt)
			if err := op.Apply(ws.vec(ws.basis, j), w); err != nil {
				return nil, err
			}
			matvecs++
			var beta float64
			if opts.LocalReorth && j > kept {
				// Three-term recurrence: only v_{j-1} and v_j carry weight
				// in exact arithmetic (plus the arrow block at j == kept,
				// handled by the branch condition). H entries beyond the
				// tridiagonal couple are left at their recorded values.
				for _, i := range []int{j - 1, j} {
					b := ws.vec(ws.basis, i)
					d := dot(w, b)
					axpy(w, b, -d)
					set(i, j, d)
				}
				beta = norm(w)
			} else {
				// Full reorthogonalization (CGS2). Because the basis is
				// orthonormal, the first pass's coefficients are exactly the
				// projected-matrix entries H[i,j] = ⟨v_i, Op·v_j⟩ (they
				// overwrite the β coupling recorded at the previous step,
				// which equals the same projection); the second pass removes
				// round-off.
				h, nrm := ws.reorth(ws.basis, cnt, w)
				for i, d := range h {
					set(i, j, d)
				}
				beta = nrm
			}
			if beta < 1e-12 {
				// Invariant subspace: continue with a fresh random direction.
				randomUnit(rng, w)
				_, nv := ws.reorth(ws.basis, cnt, w)
				if nv < 1e-12 {
					break // dimension exhausted
				}
				scale(w, 1/nv)
				cnt++
				// Coupling to the rest of the basis is zero (already set).
				continue
			}
			scale(w, 1/beta)
			set(j, cnt, beta)
			cnt++
		}

		// Rayleigh–Ritz on the projected matrix of order q = cnt-1 (the last
		// basis vector is the residual direction, not part of the projection
		// — its coupling column is the residual norm).
		q := cnt - 1
		sub := subBuf[:q*q]
		for i := 0; i < q; i++ {
			for j := 0; j < q; j++ {
				sub[i*q+j] = at(i, j)
			}
		}
		eig, z, err := symEigen(sub, q)
		if err != nil {
			return nil, err
		}
		// Residual of Ritz pair i: |Σ_j coupling[j]·z[j,i]| where coupling
		// is the projected row of the residual vector.
		coupling := make([]float64, q)
		for j := 0; j < q; j++ {
			coupling[j] = at(j, q)
		}
		scaleRef := math.Max(math.Abs(eig[0]), math.Abs(eig[q-1]))
		if scaleRef == 0 {
			scaleRef = 1
		}
		resid := make([]float64, q)
		for i := 0; i < q; i++ {
			s := 0.0
			for j := 0; j < q; j++ {
				s += coupling[j] * z[j*q+i]
			}
			resid[i] = math.Abs(s)
		}
		// Wanted pairs are the top K (eig ascending → last K columns).
		allConverged := true
		for i := 0; i < opts.K; i++ {
			if resid[q-1-i] > opts.Tol*scaleRef {
				allConverged = false
				break
			}
		}
		result := func(vecs []float64) *Result {
			res := &Result{MatVecs: matvecs, Converged: allConverged}
			for i := 0; i < opts.K; i++ {
				v := ws.vec(vecs, i)
				canonicalSign(v)
				res.Values = append(res.Values, eig[q-1-i])
				res.Vectors = append(res.Vectors, v)
			}
			return res
		}

		// Form the Ritz vectors we keep: K wanted plus padding for restart.
		// The final ones go to a fresh K-vector block the caller owns.
		if allConverged || restart == opts.MaxRestarts || q >= n-1 {
			out := make([]float64, opts.K*n)
			ws.ritzVectors(out, q, z, opts.K)
			return result(out), nil
		}
		keep := opts.K + minInt(opts.K, 8)
		if keep > q {
			keep = q
		}
		if ws.ritz == nil {
			ws.ritz = make([]float64, len(ws.basis))
		}
		ws.ritzVectors(ws.ritz, q, z, keep)

		// Thick restart: basis = retained Ritz vectors + residual direction.
		residVec := ws.vec(ws.ritz, keep)
		copy(residVec, ws.vec(ws.basis, q))
		_, nv := ws.reorth(ws.ritz, keep, residVec)
		if nv < 1e-12 {
			randomUnit(rng, residVec)
			if _, nv = ws.reorth(ws.ritz, keep, residVec); nv < 1e-12 {
				return result(ws.ritz), nil
			}
		}
		scale(residVec, 1/nv)
		ws.basis, ws.ritz = ws.ritz, ws.basis
		cnt = keep + 1
		kept = keep

		// Rebuild the projected matrix: diag(theta) with arrow coupling.
		clear(proj)
		for i := 0; i < keep; i++ {
			col := q - 1 - i
			set(i, i, eig[col])
			s := 0.0
			for j := 0; j < q; j++ {
				s += coupling[j] * z[j*q+col]
			}
			set(i, keep, s)
		}
	}
	return nil, ErrNoConverge
}

// canonicalSign flips v, if needed, so that its largest-magnitude entry (the
// first one on a tie) is positive. An eigenvector's sign is arbitrary — the
// projected solver picks it afresh every cycle — but the spectral layout
// orders clusters and rows by signed embedding coordinates, so the sign is
// fixed by this rule rather than left to the solver.
func canonicalSign(v []float64) {
	big := 0
	for r, x := range v {
		if math.Abs(x) > math.Abs(v[big]) {
			big = r
		}
	}
	if v[big] < 0 {
		scale(v, -1)
	}
}

// randomUnit fills v with a random unit vector.
func randomUnit(rng *rand.Rand, v []float64) {
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	scale(v, 1/norm(v))
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(y, x []float64, alpha float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

func scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

func norm(v []float64) float64 { return math.Sqrt(dot(v, v)) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
