// The similarity sparsifier promotes the package from a Hier-baseline helper
// to a first-class planning tier: instead of forming the full S = Ā·Āᵀ, it
// builds S only on the MinHash/banding candidate pairs, with exact
// intersection counts on those pairs. Cluster-wise reordering survives this
// sparsification (Islam & Dai, PAPERS.md): spectral clustering needs the
// intra-cluster edges LSH recalls, not the long tail of weak similarities the
// full product spends its time on.
package lsh

import (
	"context"
	"errors"

	"bootes/internal/faultinject"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
)

// ErrSparsifyFault reports an injected sparsifier failure (chaos testing).
var ErrSparsifyFault = errors.New("lsh: sparsify: injected failure")

// pairGrain is the fixed chunk size of the parallel pair-count pass.
const pairGrain = 1024

// SparsifiedSimilarity computes an approximation of
// sparse.SimilarityContext(ctx, a, maxColDegree, colCounts): same hub
// exclusion, same diagonal (S[i,i] = nnz of the hub-dropped row i), and
// exact shared-column counts — but off-diagonal entries exist only for LSH
// candidate pairs, so nnz(S) is bounded by the banding collisions instead of
// Σ d². Every stored entry equals the exact product's entry; the pattern is
// a symmetric subset of it. Equal seeds give bit-identical results for any
// worker count.
func SparsifiedSimilarity(ctx context.Context, a *sparse.CSR, maxColDegree int, colCounts []int, p Params) (*sparse.CSR, error) {
	if faultinject.Fire(faultinject.LSHSparsifyFail) {
		return nil, ErrSparsifyFault
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ap := a.Pattern()
	if maxColDegree > 0 {
		if colCounts == nil {
			colCounts = sparse.ColCounts(ap)
		}
		ap = sparse.DropHubColumnsWithCounts(ap, maxColDegree, colCounts)
	}
	ix, err := BuildContext(ctx, ap.Rows, ap.Row, p)
	if err != nil {
		return nil, err
	}
	pairs, err := ix.PairsContext(ctx)
	if err != nil {
		return nil, err
	}
	pairs = capDegrees(pairs, ap.Rows, p.MaxDegree)
	// Exact counts per surviving pair via packed bitset intersection; pairs
	// that share no columns (pure banding collisions, e.g. empty rows) get
	// count 0 and are dropped by the assembly. The degree cap runs first so
	// the exact-count pass touches at most n·maxDegree/2 pairs, not the full
	// candidate volume.
	br := sparse.PackBitRows(ap)
	counts := make([]int32, len(pairs))
	err = parallel.ForContext(ctx, len(pairs), pairGrain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			counts[t] = int32(br.IntersectCount(int(pairs[t].A), int(pairs[t].B)))
		}
	})
	if err != nil {
		return nil, err
	}
	return assembleSimilarity(ap, pairs, counts), nil
}

// capDegrees applies the symmetric greedy per-row degree cap to the sorted,
// deduplicated candidate list: a pair survives only while both endpoints
// still have budget, decided in the deterministic (A,B) order, so at most
// n·maxDegree/2 pairs remain regardless of how many candidates banding
// produced. Capping before the exact-count pass means a zero-count banding
// collision can waste a budget slot, but with single-row bands bucket-mates
// share the column achieving their common minhash, so such pairs are
// vanishingly rare — and skipping the count on the discarded candidates is
// where the sparsifier's large-n headroom comes from.
func capDegrees(pairs []Pair, n, maxDegree int) []Pair {
	if maxDegree <= 0 {
		return pairs
	}
	deg := make([]int32, n)
	kept := 0
	for t := range pairs {
		if deg[pairs[t].A] >= int32(maxDegree) || deg[pairs[t].B] >= int32(maxDegree) {
			continue
		}
		deg[pairs[t].A]++
		deg[pairs[t].B]++
		pairs[kept] = pairs[t]
		kept++
	}
	return pairs[:kept]
}

// assembleSimilarity builds the symmetric CSR from the sorted, deduplicated
// (and degree-capped) pair list. Zero-count pairs are dropped. Each row's
// columns arrive already sorted: one sequential scan of the (A,B)-sorted
// pairs emits the below-diagonal entries (for fixed B, the As ascend across
// the scan), the diagonal is appended per nonempty row, and a second scan
// emits the above-diagonal entries (for fixed A, the Bs ascend).
func assembleSimilarity(ap *sparse.CSR, pairs []Pair, counts []int32) *sparse.CSR {
	n := ap.Rows
	kept := 0
	for t := range pairs {
		if counts[t] <= 0 {
			continue
		}
		pairs[kept] = pairs[t]
		counts[kept] = counts[t]
		kept++
	}
	pairs, counts = pairs[:kept], counts[:kept]

	s := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	rowCnt := make([]int32, n)
	for t := range pairs {
		rowCnt[pairs[t].A]++
		rowCnt[pairs[t].B]++
	}
	for i := 0; i < n; i++ {
		if ap.RowNNZ(i) > 0 {
			rowCnt[i]++
		}
	}
	for i := 0; i < n; i++ {
		s.RowPtr[i+1] = s.RowPtr[i] + int64(rowCnt[i])
	}
	s.Col = make([]int32, s.RowPtr[n])
	s.Val = make([]float64, s.RowPtr[n])
	cur := make([]int64, n)
	copy(cur, s.RowPtr[:n])
	for t := range pairs {
		b := pairs[t].B
		s.Col[cur[b]] = pairs[t].A
		s.Val[cur[b]] = float64(counts[t])
		cur[b]++
	}
	for i := 0; i < n; i++ {
		if nz := ap.RowNNZ(i); nz > 0 {
			s.Col[cur[i]] = int32(i)
			s.Val[cur[i]] = float64(nz)
			cur[i]++
		}
	}
	for t := range pairs {
		a := pairs[t].A
		s.Col[cur[a]] = pairs[t].B
		s.Val[cur[a]] = float64(counts[t])
		cur[a]++
	}
	return s
}

// ModeledSparsifyBytes returns the deterministic modeled peak memory of
// SparsifiedSimilarity's index structures for an n-row matrix with the given
// parameters, excluding the output matrix itself: signatures, hash family,
// and the per-band entry arrays.
func ModeledSparsifyBytes(n int, p Params) int64 {
	if p.SigLen <= 0 {
		p.SigLen = DefaultParams().SigLen
	}
	if p.BSize <= 0 || p.BSize > p.SigLen {
		p.BSize = DefaultParams().BSize
	}
	bands := int64(p.SigLen / p.BSize)
	return int64(n)*int64(p.SigLen)*8 + int64(p.SigLen)*16 + bands*int64(n)*16
}
