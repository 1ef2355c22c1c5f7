package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bootes/internal/cluster"
	"bootes/internal/eigen"
	"bootes/internal/faultinject"
	"bootes/internal/lsh"
	"bootes/internal/obs"
	"bootes/internal/refine"
	"bootes/internal/sparse"
)

// Auto-k outcome labels, the prefix of Result.AutoK and the `outcome` label
// of bootes_autok_total. AutoKOutcomeLabel extracts them from a full outcome
// string (which may carry a ": detail" suffix).
const (
	// AutoKSelected: the eigengap was unambiguous and the selected k was used.
	AutoKSelected = "selected"
	// AutoKFallbackAmbiguous: the spectrum showed no clear gap (uniform
	// random, single blob, too-small matrix); the tree's fixed k was used.
	// Not a degradation — an ambiguous spectrum is a property of the matrix.
	AutoKFallbackAmbiguous = "fallback-ambiguous"
	// AutoKFallbackImplicit: the effective similarity tier is matrix-free, so
	// there is no explicit S to refine; the tree's fixed k was used.
	AutoKFallbackImplicit = "fallback-implicit"
	// AutoKDegraded: the auto-k attempt itself failed (eigensolve, refinement,
	// contained panic, memory budget) and planning degraded to the fixed-k
	// ladder. Recorded in Degraded/DegradedReason as well.
	AutoKDegraded = "degraded"
)

// AutoKOutcomeLabel reduces a full auto-k outcome string ("selected: k=24
// gap-ratio=3.10") to its label ("selected") for metrics.
func AutoKOutcomeLabel(outcome string) string {
	if i := strings.IndexByte(outcome, ':'); i >= 0 {
		return outcome[:i]
	}
	return outcome
}

// AutoKOptions configures eigengap-based automatic cluster-count selection.
// When enabled (and no ForceK override is present), the planner attempts the
// auto-k rung before the fixed-k degradation ladder: materialize the explicit
// similarity matrix, refine it (internal/refine), solve the top-(KMax+1)
// spectrum of the refined normalized similarity, and pick k at the largest
// eigengap ratio θ_k/θ_{k+1} within [2, KMax]. An ambiguous spectrum falls
// back to the decision tree's fixed k (not a degradation); a failed attempt
// degrades to the fixed-k ladder with the reason recorded.
type AutoKOptions struct {
	// Enabled turns the auto-k rung on.
	Enabled bool
	// KMax bounds the selected cluster count (and sizes the eigensolve at
	// KMax+1 eigenpairs). 0 selects 64.
	KMax int
	// MinGapRatio is the ambiguity threshold: the best ratio θ_k/θ_{k+1} must
	// reach it or the selection falls back to the tree's k. 0 selects 1.25,
	// calibrated so smooth uniform-random spectra (best observed in-range
	// ratio ≈1.11) fall back while planted block structure (≥1.4) selects.
	MinGapRatio float64
	// StopEigenvalue is the noise floor: eigenvalues below it terminate the
	// gap scan (the spectrum is exhausted) and clamp the ratio denominator.
	// 0 selects 1e-2 (the SpectralCluster stop_eigenvalue).
	StopEigenvalue float64
	// Refine configures the affinity-refinement pipeline run before the
	// spectrum solve. The zero value applies no refinement (eigengap on the
	// raw normalized similarity); callers wanting the production recipe pass
	// refine.Default().
	Refine refine.Options
}

func (o AutoKOptions) withDefaults() AutoKOptions {
	if o.KMax <= 0 {
		o.KMax = 64
	}
	if o.MinGapRatio <= 0 {
		o.MinGapRatio = 1.25
	}
	if o.StopEigenvalue <= 0 {
		o.StopEigenvalue = 1e-2
	}
	return o
}

// selectEigengap scans k ∈ [kmin, kmax] for the largest eigengap ratio
// θ_k/θ_{k+1} over the descending spectrum values. Eigenvalues below stop
// terminate the scan (no more cluster structure) and clamp the denominator so
// noise-floor eigenvalues cannot inflate ratios without bound. ok reports
// whether the best ratio reached minRatio.
func selectEigengap(values []float64, kmin, kmax int, stop, minRatio float64) (bestK int, bestRatio float64, ok bool) {
	if kmax > len(values)-1 {
		kmax = len(values) - 1
	}
	for k := kmin; k <= kmax; k++ {
		hi, lo := values[k-1], values[k]
		if hi < stop {
			break
		}
		if lo < stop {
			lo = stop
		}
		ratio := hi / lo
		if ratio > bestRatio {
			bestRatio, bestK = ratio, k
		}
	}
	return bestK, bestRatio, bestK >= kmin && bestRatio >= minRatio
}

// estimateAutoKFootprint is the pre-allocation memory model for the auto-k
// rung: the spectral footprint at K = KMax+1 with the exact tiers' S
// materialized (auto-k builds it; the spectral pass does not), plus one extra
// similarity-sized working set for the refinement pipeline (the refined copy
// coexists with its source between ops).
func estimateAutoKFootprint(a *sparse.CSR, base SpectralOptions, ak AutoKOptions) int64 {
	opts := base
	opts.K = ak.withDefaults().KMax + 1
	est := estimateFootprint(a, opts, true)
	return est + est/2
}

// attemptAutoK runs the auto-k rung with panic containment. Outcomes:
//
//   - (result, "selected: ...", nil): the eigengap chose k and clustering
//     succeeded with it.
//   - (nil, "fallback-...", nil): auto-k declined (ambiguous spectrum,
//     implicit similarity tier, too-small matrix); the caller proceeds with
//     the tree's fixed k. Not a degradation.
//   - (nil, "", err): the attempt failed; the caller degrades to the fixed-k
//     ladder and records the reason.
func (p *Pipeline) attemptAutoK(ctx context.Context, a *sparse.CSR, base SpectralOptions) (sr *SpectralResult, outcome string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			sr, outcome, err = nil, "", fmt.Errorf("%w: %v", ErrInternalPanic, rec)
		}
	}()
	start := time.Now()
	ak := p.AutoK.withDefaults()
	n := a.Rows
	kmax := ak.KMax
	if kmax > n-1 {
		kmax = n - 1
	}
	if kmax < 2 {
		return nil, fmt.Sprintf("%s: matrix too small for eigengap selection (n=%d)", AutoKFallbackAmbiguous, n), nil
	}

	eff := EffectiveSimilarityMode(a, base)
	if eff == SimImplicit {
		return nil, AutoKFallbackImplicit + ": refinement needs an explicit similarity matrix", nil
	}

	// Materialize the explicit similarity for the effective tier — the same
	// kernels buildSimilarityOperator dispatches to, but auto-k needs the CSR
	// itself for refinement, not just the operator.
	endSimilarity := obs.StartStage(ctx, obs.StageSimilarity)
	defer endSimilarity()
	hub, colCounts := resolveHub(a, base.HubThreshold)
	var sim *sparse.CSR
	switch eff {
	case SimApprox:
		sim, err = lsh.SparsifiedSimilarity(ctx, a, hub, colCounts, lshParams(base))
	case SimBitset:
		sim, err = sparse.SimilarityBitsetContext(ctx, a, hub, colCounts)
	default: // SimExact
		sim, err = sparse.SimilarityContext(ctx, a, hub, colCounts)
	}
	if err != nil {
		return nil, "", fmt.Errorf("core: auto-k similarity: %w", err)
	}
	obs.SimilarityModeUsed(ctx, eff.String())
	refined, err := refine.Apply(ctx, sim, ak.Refine)
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		return nil, "", fmt.Errorf("core: auto-k refinement: %w", err)
	}
	simBytes := sim.ModeledBytes() + refined.ModeledBytes()
	endSimilarity()

	// One spectrum solve sized for the largest admissible k; it exists only
	// to locate the eigengap (the ordering embedding is solved separately
	// below, over the raw similarity).
	if faultinject.Fire(faultinject.AutoKNoConverge) {
		return nil, "", fmt.Errorf("core: auto-k spectrum solve: %w", eigen.ErrNoConverge)
	}
	// Block subspace iteration, not Lanczos: a k-block matrix's normalized
	// similarity carries the eigenvalue 1 with multiplicity k, and a
	// single-vector Krylov space holds exactly one direction per distinct
	// eigenvalue — it would report a multiplicity of one regardless of k.
	// The block solver's oversampled random block resolves the degeneracy,
	// which here IS the quantity being measured.
	op := eigen.NewNormalizedSimilarity(refined)
	eo := base.Eigen
	eo.K = kmax + 1
	if eo.Seed == 0 {
		eo.Seed = base.Seed
	}
	if eo.Tol == 0 {
		eo.Tol = 1e-5
	}
	if eo.MaxRestarts == 0 {
		eo.MaxRestarts = 12
	}
	if eo.MaxBasis == 0 {
		eo.MaxBasis = 2*eo.K + 16
		if eo.MaxBasis < 48 {
			eo.MaxBasis = 48
		}
	}
	endEigensolve := obs.StartStage(ctx, obs.StageEigensolve)
	defer endEigensolve()
	res, err := eigen.BlockLargestContext(ctx, op, eo)
	endEigensolve()
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		return nil, "", fmt.Errorf("core: auto-k spectrum solve: %w", err)
	}

	k, ratio, ok := selectEigengap(res.Values, 2, kmax, ak.StopEigenvalue, ak.MinGapRatio)
	if !ok {
		return nil, fmt.Sprintf("%s: max eigengap ratio %.3f at k=%d below %.3f",
			AutoKFallbackAmbiguous, ratio, k, ak.MinGapRatio), nil
	}

	// The refined operator's job ends at selecting k. Its eigenvectors make
	// a poor ordering embedding — thresholding and diffusion erase the weak
	// ties that guide within-cluster layout — so the embedding comes from a
	// second Lanczos solve over the raw similarity at the selected k. It
	// runs at eigen's package defaults (Tol 1e-8), like SpectralSweepContext,
	// not at the clustering grade of clusterEigenOptions: at 1e-2 the
	// many-small-clusters embedding loses its edge over the sweep (0.2890 vs
	// 0.2791 in TestAutoKSelectorComparison). Auto-k therefore costs one
	// block solve for the spectrum plus one tight Lanczos solve.
	rawOp := eigen.NewNormalizedSimilarity(sim)
	reo := base.Eigen
	reo.K = k
	if reo.Seed == 0 {
		reo.Seed = base.Seed
	}
	endEmbedSolve := obs.StartStage(ctx, obs.StageEigensolve)
	defer endEmbedSolve()
	rawRes, err := eigen.LargestContext(ctx, rawOp, reo)
	endEmbedSolve()
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		return nil, "", fmt.Errorf("core: auto-k embedding solve: %w", err)
	}

	// NJW embedding + k-means + layout, seeded per k as the sweep seeds it.
	endKMeans := obs.StartStage(ctx, obs.StageKMeans)
	defer endKMeans()
	embedding := buildEmbedding(rawRes.Vectors, n, k)
	ko := base.KMeans
	ko.K = k
	if ko.Seed == 0 {
		ko.Seed = base.Seed + int64(k)
	}
	if ko.MaxIters == 0 {
		ko.MaxIters = 40
	}
	if ko.Restarts == 0 {
		ko.Restarts = 2
	}
	km, err := cluster.KMeansContext(ctx, embedding, n, k, ko)
	endKMeans()
	if err != nil {
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		return nil, "", fmt.Errorf("core: auto-k k-means: %w", err)
	}
	endPermute := obs.StartStage(ctx, obs.StagePermute)
	defer endPermute()
	perm := cluster.PermutationFromAssignment(km.Assign, k, embedding, k, base.Order)
	endPermute()

	basisBytes := int64(eo.MaxBasis+1) * int64(n) * 8
	embedBytes := int64(len(embedding)) * 8
	foot := simBytes + int64(n)*8*2 + basisBytes
	if kmPhase := embedBytes + int64(n)*4 + int64(k*k)*8; kmPhase > foot {
		foot = kmPhase
	}
	return &SpectralResult{
		Perm:           perm,
		Assign:         km.Assign,
		Embedding:      embedding,
		K:              k,
		Eigenvalues:    res.Values,
		MatVecs:        res.MatVecs + rawRes.MatVecs,
		KMeansIters:    km.Iters,
		Inertia:        km.Inertia,
		Similarity:     eff,
		PreprocessTime: time.Since(start),
		FootprintBytes: foot + int64(n)*4,
	}, fmt.Sprintf("%s: k=%d gap-ratio=%.2f", AutoKSelected, k, ratio), nil
}
