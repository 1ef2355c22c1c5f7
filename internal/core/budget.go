package core

import (
	"time"

	"bootes/internal/faultinject"
	"bootes/internal/lsh"
	"bootes/internal/sparse"
)

// Budget caps the resources one planning pass may consume. The zero value
// imposes no limits. Budgets never cause planning to fail: exceeding one
// makes the pipeline fall down its degradation ladder (lower-memory operator
// first, identity last) and record why in the result.
type Budget struct {
	// MaxWallClock bounds the planning wall time. When it expires the
	// pipeline abandons in-flight work cooperatively and returns an identity
	// plan marked Degraded, rather than an error: the caller's own context
	// still distinguishes genuine cancellation.
	MaxWallClock time.Duration
	// MaxFootprintBytes bounds the modeled peak host memory of the spectral
	// pass. Candidate configurations whose upper-bound estimate exceeds it
	// are skipped *before* any similarity storage is allocated.
	MaxFootprintBytes int64
}

// memoryExceeded reports whether a configuration with the given modeled
// footprint estimate must be skipped. The fault-injection point lets tests
// force a breach without constructing a matrix that genuinely blows a cap.
func (b Budget) memoryExceeded(estimate int64) bool {
	if faultinject.Fire(faultinject.AllocCapBreach) {
		return true
	}
	return b.MaxFootprintBytes > 0 && estimate > b.MaxFootprintBytes
}

// estimateSpectralFootprint upper-bounds the peak modeled bytes of one
// spectral pass over a with the given options, using only column degrees —
// nothing is allocated. It mirrors the footprint model in
// Spectral.ReorderContext with each realized size replaced by an upper
// bound (nnz(Ā) for the hub-dropped pattern, the collision cap or the
// degree-sum bound for the sparsified S), so the estimate is always ≥ the
// realized footprint.
func estimateSpectralFootprint(a *sparse.CSR, opts SpectralOptions) int64 {
	return estimateFootprint(a, opts, false)
}

// estimateFootprint is estimateSpectralFootprint with the similarity phase
// optionally charged for an explicit S on the exact tiers: materialized
// models auto-k, which builds S for refinement where the spectral pass
// applies it matrix-free.
func estimateFootprint(a *sparse.CSR, opts SpectralOptions, materialized bool) int64 {
	n := a.Rows
	if n == 0 {
		return 0
	}
	k := opts.K
	if k > n {
		k = n
	}
	hub, colCounts := resolveHub(a, opts.HubThreshold)

	var simBytes int64
	switch mode := resolveSimilarityMode(a, opts, hub, colCounts); {
	case mode == SimApprox:
		// LSH index structures plus one bit pack plus the sparsified S,
		// bounded by the collision-capped pair count or the exact bound,
		// whichever is smaller.
		p := lshParams(opts)
		bands := int64(1)
		if p.BSize > 0 {
			bands = int64(p.SigLen / p.BSize)
		}
		sNNZ := int64(n) * (1 + 2*bands)
		if p.MaxDegree > 0 {
			if capped := int64(n) * (1 + 2*int64(p.MaxDegree)); capped < sNNZ {
				sNNZ = capped
			}
		}
		if exact := sparse.EstimateSimilarityNNZ(a, hub, colCounts); exact < sNNZ {
			sNNZ = exact
		}
		simBytes = lsh.ModeledSparsifyBytes(n, p) + a.NNZ()*(4+8) + int64(n+1)*8 + sNNZ*(4+8)
	case materialized && mode == SimBitset:
		// The exact S plus the two packed bitset structures.
		nnz := sparse.EstimateSimilarityNNZ(a, hub, colCounts)
		simBytes = int64(n+1)*8 + nnz*(4+8) + 2*a.NNZ()*(4+8)
	case materialized && mode == SimExact:
		nnz := sparse.EstimateSimilarityNNZ(a, hub, colCounts)
		simBytes = int64(n+1)*8 + nnz*(4+8)
	default:
		simBytes = implicitOperatorBytes(n, a.Cols, a.NNZ(), hub > 0)
	}

	maxBasis := clusterEigenOptions(k, opts.Eigen, opts.Seed).MaxBasis
	degreeWork := int64(n) * 8 * 2
	basisBytes := int64(maxBasis+1) * int64(n) * 8
	eigPhase := simBytes + degreeWork + basisBytes
	kmPhase := int64(n)*int64(k)*8 + int64(n)*4 + int64(k*k)*8
	foot := eigPhase
	if kmPhase > foot {
		foot = kmPhase
	}
	return foot + int64(n)*4
}

// implicitOperatorBytes models what eigen.ImplicitSimilarity allocates for a
// rows×cols matrix whose hub-dropped pattern keeps nnz entries: the pattern
// copy when hub columns were dropped (otherwise Ā shares a's arrays), the
// pattern Āᵀ with the length-cols scatter cursors that build it, and the
// length-rows and length-cols matvec temporaries.
func implicitOperatorBytes(rows, cols int, nnz int64, hubCopy bool) int64 {
	b := int64(cols+1)*8 + nnz*4 + int64(rows)*8 + 2*int64(cols)*8
	if hubCopy {
		b += int64(rows+1)*8 + nnz*4
	}
	return b
}
