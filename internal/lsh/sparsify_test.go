package lsh

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/parallel"
	"bootes/internal/sparse"
)

// groupedMatrix builds a pattern matrix whose rows draw their support from
// per-group column templates — exactly the correlated-support shape LSH must
// recall.
func groupedMatrix(n, nnz, groups int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n, true)
	span := n / groups
	for i := 0; i < n; i++ {
		base := (i % groups) * span
		for k := 0; k < nnz; k++ {
			coo.AddPattern(i, base+rng.Intn(span))
		}
	}
	m, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return m
}

func TestSparsifiedSimilarityIsExactSubset(t *testing.T) {
	a := groupedMatrix(300, 10, 6, 3)
	hub := sparse.HubDegreeThresholdFromCounts(sparse.ColCounts(a))
	exact, err := sparse.SimilarityContext(context.Background(), a, hub, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := SparsifiedSimilarity(context.Background(), a, hub, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := approx.Validate(); err != nil {
		t.Fatalf("approx similarity invalid: %v", err)
	}
	if approx.Rows != exact.Rows || approx.Cols != exact.Cols {
		t.Fatalf("shape %dx%d want %dx%d", approx.Rows, approx.Cols, exact.Rows, exact.Cols)
	}
	if approx.NNZ() > exact.NNZ() {
		t.Fatalf("approx nnz %d exceeds exact nnz %d", approx.NNZ(), exact.NNZ())
	}
	for i := 0; i < approx.Rows; i++ {
		row, vals := approx.Row(i), approx.RowVals(i)
		for p, j := range row {
			if got, want := vals[p], exact.At(i, int(j)); got != want {
				t.Fatalf("approx[%d,%d]=%v want exact %v", i, j, got, want)
			}
			if got, want := approx.At(int(j), i), vals[p]; got != want {
				t.Fatalf("asymmetric at (%d,%d): %v vs %v", i, j, vals[p], got)
			}
		}
		if approx.At(i, i) != float64(a.RowNNZ(i)) && hub <= 0 {
			t.Fatalf("diagonal mismatch at %d", i)
		}
	}
}

func TestSparsifiedSimilarityDeterministicAcrossWorkers(t *testing.T) {
	a := groupedMatrix(400, 8, 8, 9)
	var ref *sparse.CSR
	for _, w := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(w)
		s, err := SparsifiedSimilarity(context.Background(), a, 0, nil, DefaultParams())
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = s
			continue
		}
		if !sparse.Equal(ref, s) {
			t.Fatalf("workers=%d: sparsified similarity differs", w)
		}
	}
}

func TestSparsifiedSimilarityRecallsGroupStructure(t *testing.T) {
	a := groupedMatrix(240, 12, 4, 5)
	s, err := SparsifiedSimilarity(context.Background(), a, 0, nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Every row must keep at least its diagonal, and the candidate graph must
	// retain a solid majority of intra-group mass: rows of a group share a
	// 60-column template with 12 draws, giving Jaccard high enough for the
	// default banding to recall.
	offDiag := 0
	for i := 0; i < s.Rows; i++ {
		if !s.Has(i, i) {
			t.Fatalf("row %d lost its diagonal", i)
		}
		offDiag += s.RowNNZ(i) - 1
	}
	if offDiag < s.Rows {
		t.Fatalf("only %d off-diagonal entries for %d rows; LSH recall collapsed", offDiag, s.Rows)
	}
	for p := 0; p < s.Rows; p++ {
		for _, j := range s.Row(p) {
			if int(j)%4 != p%4 {
				t.Fatalf("cross-group candidate (%d,%d) with disjoint supports", p, j)
			}
		}
	}
}

func TestSparsifiedSimilarityInjectedFault(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm(faultinject.LSHSparsifyFail); err != nil {
		t.Fatal(err)
	}
	_, err := SparsifiedSimilarity(context.Background(), groupedMatrix(60, 4, 4, 1), 0, nil, DefaultParams())
	if !errors.Is(err, ErrSparsifyFault) {
		t.Fatalf("err = %v, want ErrSparsifyFault", err)
	}
	// The fault fires once; the retry must succeed.
	if _, err := SparsifiedSimilarity(context.Background(), groupedMatrix(60, 4, 4, 1), 0, nil, DefaultParams()); err != nil {
		t.Fatalf("second call: %v", err)
	}
}

func TestSparsifiedSimilarityCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SparsifiedSimilarity(ctx, groupedMatrix(60, 4, 4, 1), 0, nil, DefaultParams()); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestPairsContextMatchesCandidatePairs(t *testing.T) {
	a := groupedMatrix(200, 6, 5, 7)
	ix := Build(a.Rows, a.Row, DefaultParams())
	want := ix.CandidatePairs()
	for _, w := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(w)
		got, err := ix.PairsContext(context.Background())
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pair %d = %v, want %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestModeledSparsifyBytesPositive(t *testing.T) {
	if b := ModeledSparsifyBytes(1000, Params{}); b <= 0 {
		t.Fatalf("ModeledSparsifyBytes = %d", b)
	}
}
