package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"bootes/internal/faultinject"
)

// BlockLargestContext computes the K algebraically largest eigenpairs of a
// symmetric operator with randomized block subspace iteration (orthogonal
// iteration with Rayleigh–Ritz acceleration). Unlike single-vector Lanczos,
// whose Krylov space contains exactly one direction per *distinct*
// eigenvalue, a block of b ≥ multiplicity random starts resolves degenerate
// and tightly clustered eigenvalues — the spectrum shape of a k-block
// similarity matrix, whose normalized operator carries the eigenvalue 1 with
// multiplicity k. That makes this the right solver for eigengap
// cluster-count detection, where the multiplicity IS the answer being
// sought.
//
// ctx is checked before every operator application. Options are
// interpreted as:
//
//   - K: wanted eigenpairs.
//   - MaxBasis: cap on the iteration block size (default block is K+8,
//     oversampled so trailing wanted pairs converge; 0 leaves the default).
//   - MaxRestarts: maximum subspace iterations (0 selects 40).
//   - Tol: Ritz residual tolerance relative to the spectral scale.
//   - Seed, DenseFallbackDim: as for LargestContext.
//
// Like LargestContext, a solve that runs out of iterations returns the best
// available Ritz approximations with Converged=false rather than an error.
func BlockLargestContext(ctx context.Context, op Operator, opts Options) (*Result, error) {
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
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxRestarts == 0 {
		opts.MaxRestarts = 40
	}
	if opts.DenseFallbackDim == 0 {
		opts.DenseFallbackDim = 96
	}
	b := opts.K + 8
	if opts.MaxBasis > 0 && b > opts.MaxBasis {
		b = opts.MaxBasis
	}
	if b < opts.K {
		b = opts.K
	}
	if b > n {
		b = n
	}
	// A block spanning most of the space is a dense solve in disguise — do
	// the honest dense solve instead.
	if n <= opts.DenseFallbackDim || 2*b >= n {
		return denseLargest(ctx, op, opts.K)
	}

	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5b5c4e))
	x := make([][]float64, b) // current orthonormal block
	v := make([][]float64, b) // Op·x
	u := make([][]float64, b) // Ritz vectors (next block)
	for j := 0; j < b; j++ {
		x[j] = make([]float64, n)
		randomUnit(rng, x[j])
		v[j] = make([]float64, n)
		u[j] = make([]float64, n)
	}
	orthonormalizeBlock(x)

	h := make([]float64, b*b)
	matvecs := 0
	var values []float64
	var theta []float64
	for iter := 0; iter < opts.MaxRestarts; iter++ {
		// V = Op·X, one application per block column.
		for j := 0; j < b; j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := op.Apply(x[j], v[j]); err != nil {
				return nil, err
			}
			matvecs++
		}
		// Rayleigh–Ritz: H = Xᵀ(Op·X), symmetrized against round-off.
		for i := 0; i < b; i++ {
			for j := i; j < b; j++ {
				d := (dot(x[i], v[j]) + dot(x[j], v[i])) / 2
				h[i*b+j], h[j*b+i] = d, d
			}
		}
		eig, q, err := JacobiEigen(h, b)
		if err != nil {
			return nil, err
		}
		// Rotate to Ritz pairs, largest first: u_r = Σ_j q[j,col]·x_j.
		theta = theta[:0]
		scale := 0.0
		for r := 0; r < b; r++ {
			col := b - 1 - r // JacobiEigen returns ascending order
			theta = append(theta, eig[col])
			if a := math.Abs(eig[col]); a > scale {
				scale = a
			}
			ur := u[r]
			for i := range ur {
				ur[i] = 0
			}
			for j := 0; j < b; j++ {
				if c := q[j*b+col]; c != 0 {
					axpy(ur, x[j], c)
				}
			}
		}
		if scale == 0 {
			scale = 1
		}
		// Same rotation applied to V gives W = V·Q = Op·U — the residual
		// numerator AND the next iterate (this is the operator application
		// that advances the subspace; rotating X alone would leave it fixed).
		// X's storage is free once U is built, so W overwrites it row by row.
		for r := 0; r < b; r++ {
			col := b - 1 - r
			wr := x[r]
			for i := range wr {
				wr[i] = 0
			}
			for j := 0; j < b; j++ {
				if c := q[j*b+col]; c != 0 {
					axpy(wr, v[j], c)
				}
			}
		}
		done := true
		for r := 0; r < opts.K; r++ {
			// residual_r = ‖w_r − θ_r·u_r‖ = ‖Op·u_r − θ_r·u_r‖.
			res := 0.0
			for i := 0; i < n; i++ {
				s := x[r][i] - theta[r]*u[r][i]
				res += s * s
			}
			if math.Sqrt(res) > opts.Tol*scale {
				done = false
				break
			}
		}
		if done {
			values = append(values[:0], theta...)
			return blockResult(values, u, opts.K, matvecs, true), nil
		}
		// Next block: orth(W) = orth(Op·X·Q) — one step of subspace iteration
		// with the Ritz ordering leading, so MGS favors dominant directions.
		orthonormalizeBlock(x)
	}
	// Out of iterations: the latest Ritz pairs (θ, U) are mutually
	// consistent best-available approximations.
	values = append(values[:0], theta...)
	return blockResult(values, u, opts.K, matvecs, false), nil
}

// blockResult shapes the leading k Ritz pairs into a Result.
func blockResult(theta []float64, vecs [][]float64, k, matvecs int, converged bool) *Result {
	res := &Result{MatVecs: matvecs, Converged: converged}
	for r := 0; r < k; r++ {
		res.Values = append(res.Values, theta[r])
		res.Vectors = append(res.Vectors, vecs[r])
	}
	return res
}

// orthonormalizeBlock runs two passes of modified Gram–Schmidt over the block
// in place. Vectors that cancel to (numerical) zero are replaced by fresh
// coordinate directions so the block keeps full rank.
func orthonormalizeBlock(x [][]float64) {
	n := len(x[0])
	for j := range x {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				axpy(x[j], x[i], -dot(x[j], x[i]))
			}
		}
		nrm := norm(x[j])
		if nrm < 1e-12 {
			// Degenerate direction: re-seed deterministically from the unit
			// basis and re-orthogonalize.
			for i := range x[j] {
				x[j][i] = 0
			}
			x[j][j%n] = 1
			for i := 0; i < j; i++ {
				axpy(x[j], x[i], -dot(x[j], x[i]))
			}
			nrm = norm(x[j])
			if nrm < 1e-12 {
				continue
			}
		}
		scale(x[j], 1/nrm)
	}
}
