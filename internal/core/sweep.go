package core

import (
	"context"
	"errors"
	"time"

	"bootes/internal/cluster"
	"bootes/internal/eigen"
	"bootes/internal/faultinject"
	"bootes/internal/obs"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
)

// SweepEntry is the result of one cluster count in a spectral sweep.
type SweepEntry struct {
	K              int
	Perm           sparse.Permutation
	Inertia        float64
	PreprocessTime time.Duration // embedding share + this k's k-means
}

// SpectralSweepContext evaluates several cluster counts with a single
// eigensolve: the embedding is computed once for max(ks) eigenvectors and
// each k reuses its leading k columns (eigenvectors are ordered by
// eigenvalue, so the prefix is exactly the k-dimensional spectral
// embedding). This is how the decision-tree labeller and the Figure 3 sweep
// keep 5 k-values affordable. The context is consulted before the shared
// eigensolve, inside it per matvec, and again before each k's k-means, so a
// sweep cancelled mid-flight stops launching per-k work and returns
// ctx.Err() promptly.
func SpectralSweepContext(ctx context.Context, a *sparse.CSR, ks []int, opts SpectralOptions) ([]SweepEntry, error) {
	if len(ks) == 0 {
		return nil, errors.New("core: empty k list")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := a.Rows
	kmax := 0
	for _, k := range ks {
		if k < 2 {
			return nil, ErrBadK
		}
		if k > kmax {
			kmax = k
		}
	}
	if kmax > n {
		kmax = n
	}

	// The sweep span covers the whole call; the sequential shared-embedding
	// work additionally gets similarity and eigensolve spans. The per-k
	// k-means fan-out is deliberately left uninstrumented: spans from
	// concurrent workers would interleave clock reads nondeterministically,
	// and the sweep span already accounts for that time.
	endSweep := obs.StartStage(ctx, obs.StageSweep)
	defer endSweep()

	embedStart := time.Now()
	endSimilarity := obs.StartStage(ctx, obs.StageSimilarity)
	defer endSimilarity()
	op, _, _, err := buildSimilarityOperator(ctx, a, opts)
	if err != nil {
		return nil, err
	}
	endSimilarity()
	eo := opts.Eigen
	eo.K = kmax
	if eo.Seed == 0 {
		eo.Seed = opts.Seed
	}
	endEigensolve := obs.StartStage(ctx, obs.StageEigensolve)
	defer endEigensolve()
	res, err := eigen.LargestContext(ctx, op, eo)
	endEigensolve()
	if err != nil {
		return nil, err
	}
	embedTime := time.Since(embedStart)

	// Row-major full embedding (n × kmax). Each k-prefix is re-normalized
	// below, so the full embedding is kept raw here.
	full := make([]float64, n*kmax)
	for j, vec := range res.Vectors {
		for i := 0; i < n; i++ {
			full[i*kmax+j] = vec[i]
		}
	}

	// Once the shared embedding exists each k's k-means + permutation is
	// independent, so the per-k work fans out across the worker pool. Each k
	// seeds its own PRNGs from opts.Seed, so the fan-out is deterministic;
	// entries are written by index, preserving the ks order.
	entries := make([]SweepEntry, len(ks))
	errs := make([]error, len(ks))
	ferr := parallel.ForContext(ctx, len(ks), 1, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			// Injection point for fault-tolerance tests: a mid-sweep
			// cancellation (armed with an OnFire callback that cancels ctx)
			// fires at the start of a k's work, exercising the prompt-return
			// path below.
			faultinject.Fire(faultinject.SweepCancel)
			if ctx.Err() != nil {
				return
			}
			k := ks[idx]
			kk := k
			if kk > n {
				kk = n
			}
			kmStart := time.Now()
			sub := make([]float64, n*kk)
			for i := 0; i < n; i++ {
				copy(sub[i*kk:(i+1)*kk], full[i*kmax:i*kmax+kk])
			}
			normalizeRows(sub, n, kk)
			ko := opts.KMeans
			ko.K = kk
			if ko.Seed == 0 {
				ko.Seed = opts.Seed + int64(kk)
			}
			km, err := cluster.KMeansContext(ctx, sub, n, kk, ko)
			if err != nil {
				errs[idx] = err
				continue
			}
			perm := cluster.PermutationFromAssignment(km.Assign, kk, sub, kk, opts.Order)
			entries[idx] = SweepEntry{
				K:              k,
				Perm:           perm,
				Inertia:        km.Inertia,
				PreprocessTime: embedTime/time.Duration(len(ks)) + time.Since(kmStart),
			}
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	for i, err := range errs {
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		if entries[i].Perm == nil {
			// Chunk abandoned between the Fire above and ctx.Err going
			// non-nil after ForContext returned.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, errors.New("core: sweep entry missing")
		}
	}
	return entries, nil
}

// normalizeRows applies Ng–Jordan–Weiss row normalization in place.
func normalizeRows(embedding []float64, n, dim int) {
	for i := 0; i < n; i++ {
		row := embedding[i*dim : (i+1)*dim]
		s := 0.0
		for _, v := range row {
			s += v * v
		}
		if s > 0 {
			inv := 1 / sqrtf(s)
			for d := range row {
				row[d] *= inv
			}
		}
	}
}
