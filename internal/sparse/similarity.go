package sparse

import (
	"context"
	"slices"
	"sync"

	"bootes/internal/parallel"
)

// SimilarityContext computes the row-similarity matrix S = Ā·Āᵀ where Ā is
// the binary pattern of A. Entry S[i,j] is the number of column coordinates
// rows i and j share; the diagonal S[i,i] equals nnz(row i). This is the
// matrix Bootes' spectral clustering operates on (Algorithm 4, line 12).
//
// The computation walks A column by column through Aᵀ, so its cost is
// Σ_j d_j² where d_j is the number of nonzeros in column j of A — the first
// term of Bootes' complexity in Table 2 of the paper.
//
// Columns whose degree exceeds maxColDegree are skipped. Hub columns (shared
// variables, boundary conditions, graph super-nodes) connect nearly every row
// pair, so they both densify S — turning the Σ_j d_j² construction quadratic
// — and add a near-uniform similarity component that carries no cluster
// information. Excluding them is the key implementation optimization that
// keeps S sparse and Bootes linear-scaling. maxColDegree ≤ 0 disables the
// cap. colCounts are ColCounts(a) when the caller already holds them (the
// spectral pipeline computes them for the hub threshold); nil computes them
// on demand. Values are counted on the pattern of a, so counts of a and of
// a.Pattern() are interchangeable.
//
// The two row-parallel passes stop launching chunks once ctx is done and the
// call returns ctx.Err(). Cancellation during pass one returns before the
// output index/value arrays are ever allocated, which is what bounds the
// memory a cancelled plan can pin.
func SimilarityContext(ctx context.Context, a *CSR, maxColDegree int, colCounts []int) (*CSR, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ap := a.Pattern()
	if maxColDegree > 0 {
		if colCounts == nil {
			colCounts = ColCounts(ap)
		}
		ap = DropHubColumnsWithCounts(ap, maxColDegree, colCounts)
	}
	at := Transpose(ap)
	return spgemmCount(ctx, ap, at)
}

// DropHubColumnsWithCounts returns a pattern copy of m with all entries in
// columns of degree > maxDeg removed, given the column degrees counts =
// ColCounts(m). It counts surviving entries per row first, then fills
// disjoint pre-sized row regions in parallel.
func DropHubColumnsWithCounts(m *CSR, maxDeg int, counts []int) *CSR {
	out := &CSR{Rows: m.Rows, Cols: m.Cols}
	out.RowPtr = make([]int64, m.Rows+1)
	keep := make([]int32, m.Rows)
	parallel.For(m.Rows, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := int32(0)
			for _, c := range m.Row(i) {
				if counts[c] <= maxDeg {
					n++
				}
			}
			keep[i] = n
		}
	})
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] = out.RowPtr[i] + int64(keep[i])
	}
	out.Col = make([]int32, out.RowPtr[m.Rows])
	parallel.For(m.Rows, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := out.RowPtr[i]
			for _, c := range m.Row(i) {
				if counts[c] <= maxDeg {
					out.Col[p] = c
					p++
				}
			}
		}
	})
	return out
}

// HubDegreeThresholdFromCounts returns the default hub-exclusion threshold
// for a matrix with column degrees counts = ColCounts(a): several times the
// mean column degree, floored so tiny matrices keep all columns. Taking the
// counts lets the pipeline share one ColCounts walk between threshold
// selection and hub dropping.
func HubDegreeThresholdFromCounts(counts []int) int {
	nonEmpty := 0
	total := 0
	for _, c := range counts {
		if c > 0 {
			nonEmpty++
			total += c
		}
	}
	if nonEmpty == 0 {
		return 0
	}
	mean := float64(total) / float64(nonEmpty)
	thr := int(8 * mean)
	if thr < 32 {
		thr = 32
	}
	return thr
}

// rowGrain is the fixed row-chunk size of the parallel sparse kernels. It is
// a constant (never derived from the worker count) so chunk boundaries — and
// with them every merge order — are identical no matter how many workers run.
const rowGrain = 64

// spaScratch is the per-worker sparse-accumulator state of the similarity
// kernels, pooled at package level so repeated planner calls reuse the same
// buffers instead of reallocating per call. The mark array is stamped with a
// monotonic per-scratch generation counter: every row processed draws a fresh
// stamp, so stale marks — from earlier rows, earlier passes, or earlier
// calls — can never equal the current stamp and the arrays never need
// re-clearing. wordAcc (the bitset path's dense word accumulator) is instead
// kept all-zero between uses by its sole consumer.
type spaScratch struct {
	acc     []float64
	mark    []int64
	touched []int32
	wordAcc []uint64
	colAcc  []uint64
	next    int64
}

var spaPool sync.Pool

// getScratch returns a pooled scratch whose mark (and acc, wordAcc, colAcc
// when requested non-zero) arrays hold at least the given lengths. Fresh mark
// regions are initialized to -1, which no generation stamp ever equals.
func getScratch(markLen, accLen, wordLen, colWordLen int) *spaScratch {
	s, _ := spaPool.Get().(*spaScratch)
	if s == nil {
		s = &spaScratch{touched: make([]int32, 0, 256)}
	}
	if len(s.mark) < markLen {
		s.mark = make([]int64, markLen)
		for i := range s.mark {
			s.mark[i] = -1
		}
	}
	if len(s.acc) < accLen {
		s.acc = make([]float64, accLen)
	}
	if len(s.wordAcc) < wordLen {
		s.wordAcc = make([]uint64, wordLen)
	}
	if len(s.colAcc) < colWordLen {
		s.colAcc = make([]uint64, colWordLen)
	}
	return s
}

func putScratch(s *spaScratch) { spaPool.Put(s) }

// spgemmCount is SpGEMM specialized to binary inputs: the output value is
// the count of contributing k's, i.e. |row_i(A) ∩ row_j(Aᵀᵀ)| for S=A·Aᵀ.
//
// It runs two row-parallel passes over Gustavson's algorithm: pass one
// counts each output row's nnz, a serial prefix sum sizes RowPtr, and pass
// two recomputes each row's accumulator and writes the sorted indices and
// counts into its disjoint, pre-sized region of Col/Val. Workers touch
// disjoint output rows, so the result is bit-identical to the sequential
// order for any worker count — and the pre-sizing kills the per-row
// append churn of the old single-pass scheme.
func spgemmCount(ctx context.Context, a, b *CSR) (*CSR, error) {
	if a.Cols != b.Rows {
		return nil, ErrDimension
	}
	c := &CSR{Rows: a.Rows, Cols: b.Cols}
	c.RowPtr = make([]int64, a.Rows+1)
	c.Val = []float64{} // counts are values, even when empty

	// Pass 1: count nnz per output row (mark-only accumulator walk). Scratch
	// is returned via defer so an early exit (panic or cancellation between
	// chunks) never strands a buffer outside the pool.
	rowNNZ := make([]int64, a.Rows)
	err := parallel.ForContext(ctx, a.Rows, rowGrain, func(lo, hi int) {
		s := getScratch(b.Cols, 0, 0, 0)
		defer putScratch(s)
		for i := lo; i < hi; i++ {
			stamp := s.next
			s.next++
			n := int64(0)
			for _, k := range a.Row(i) {
				for _, j := range b.Row(int(k)) {
					if s.mark[j] != stamp {
						s.mark[j] = stamp
						n++
					}
				}
			}
			rowNNZ[i] = n
		}
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < a.Rows; i++ {
		c.RowPtr[i+1] = c.RowPtr[i] + rowNNZ[i]
	}
	c.Col = make([]int32, c.RowPtr[a.Rows])
	c.Val = make([]float64, c.RowPtr[a.Rows])

	// Pass 2: fill each row's pre-sized slice region. Each row draws a fresh
	// generation stamp, so pass-1 marks on a reused scratch can never collide.
	err = parallel.ForContext(ctx, a.Rows, rowGrain, func(lo, hi int) {
		s := getScratch(b.Cols, b.Cols, 0, 0)
		defer putScratch(s)
		for i := lo; i < hi; i++ {
			stamp := s.next
			s.next++
			s.touched = s.touched[:0]
			for _, k := range a.Row(i) {
				for _, j := range b.Row(int(k)) {
					if s.mark[j] != stamp {
						s.mark[j] = stamp
						s.acc[j] = 0
						s.touched = append(s.touched, j)
					}
					s.acc[j]++
				}
			}
			slices.Sort(s.touched)
			p := c.RowPtr[i]
			for _, j := range s.touched {
				c.Col[p] = j
				c.Val[p] = s.acc[j]
				p++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// EstimateSimilarityNNZ returns a deterministic upper bound on nnz(S) for
// S = Ā·Āᵀ under hub exclusion, computed from column degrees alone:
// Σ_j d_j² over surviving columns, saturated at rows². The planner's memory
// budget compares this bound against its cap *before* any similarity storage
// is allocated. maxColDegree ≤ 0 keeps every column; nil colCounts are
// computed on demand.
func EstimateSimilarityNNZ(a *CSR, maxColDegree int, colCounts []int) int64 {
	if colCounts == nil {
		colCounts = ColCounts(a)
	}
	full := int64(a.Rows) * int64(a.Rows)
	var est int64
	for _, d := range colCounts {
		if maxColDegree > 0 && d > maxColDegree {
			continue
		}
		est += int64(d) * int64(d)
		if est >= full {
			return full
		}
	}
	return est
}

// IntersectionSize returns |cols(row i) ∩ cols(row j)| for two rows of m,
// by merging the two sorted index lists.
func IntersectionSize(m *CSR, i, j int) int {
	a, b := m.Row(i), m.Row(j)
	n, p, q := 0, 0, 0
	for p < len(a) && q < len(b) {
		switch {
		case a[p] < b[q]:
			p++
		case a[p] > b[q]:
			q++
		default:
			n++
			p++
			q++
		}
	}
	return n
}

// Jaccard returns the Jaccard similarity |∩|/|∪| of the column supports of
// rows i and j (0 when both rows are empty). Hier's merging criterion.
func Jaccard(m *CSR, i, j int) float64 {
	inter := IntersectionSize(m, i, j)
	union := m.RowNNZ(i) + m.RowNNZ(j) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
