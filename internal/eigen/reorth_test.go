package eigen

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"bootes/internal/parallel"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// planMidRows is the size of the plan-mid-shaped fixture: large enough that
// the reorthogonalization kernels split it into several row chunks, so a
// chunk merge that depended on the worker count would show.
const planMidRows = 6144

// planMidMatVecs is the operator-application count of the fixture solve,
// recorded from the modified Gram–Schmidt solver the blocked kernels
// replaced. Faster kernels must not buy wall time with extra iterations.
const planMidMatVecs = 280

// planMidOptions mirrors the options core.Spectral passes for k=32.
var planMidOptions = Options{K: 32, Tol: 1e-5, MaxRestarts: 12, MaxBasis: 80, Seed: 1}

// planMidOp is the normalized hub-capped similarity of a 6144-row
// scrambled-block matrix with 32 nnz per row, built the way the exact tier
// builds it.
var planMidOp = sync.OnceValue(func() *NormalizedSimilarity {
	a := workloads.Generate(workloads.ArchScrambledBlock, workloads.Params{
		Rows: planMidRows, Cols: planMidRows, Density: 32.0 / planMidRows, Groups: 16, Seed: 11,
	})
	hub := sparse.HubDegreeThresholdFromCounts(sparse.ColCounts(a))
	return NewNormalizedSimilarity(sparse.SimilarityCapped(a, hub))
})

func TestLanczosPlanMidMatVecs(t *testing.T) {
	res, err := LargestContext(context.Background(), planMidOp(), planMidOptions)
	if err != nil {
		t.Fatal(err)
	}
	if res.MatVecs != planMidMatVecs {
		t.Errorf("MatVecs = %d, want %d", res.MatVecs, planMidMatVecs)
	}
	if !res.Converged {
		t.Error("fixture solve did not converge")
	}
}

func TestLanczosWorkerCountBitIdentical(t *testing.T) {
	op := planMidOp()
	if chunks := (op.Dim() + reorthGrain - 1) / reorthGrain; chunks < 4 {
		t.Fatalf("fixture spans %d row chunks, want ≥ 4", chunks)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	var ref *Result
	for _, w := range []int{1, 2, 4} {
		parallel.SetWorkers(w)
		res, err := LargestContext(context.Background(), op, planMidOptions)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.MatVecs != ref.MatVecs || res.Converged != ref.Converged {
			t.Fatalf("workers=%d: matvecs %d converged %v, want %d %v",
				w, res.MatVecs, res.Converged, ref.MatVecs, ref.Converged)
		}
		for i := range ref.Values {
			if math.Float64bits(res.Values[i]) != math.Float64bits(ref.Values[i]) {
				t.Fatalf("workers=%d: value %d = %v, want %v", w, i, res.Values[i], ref.Values[i])
			}
			for r := range ref.Vectors[i] {
				if math.Float64bits(res.Vectors[i][r]) != math.Float64bits(ref.Vectors[i][r]) {
					t.Fatalf("workers=%d: vector %d row %d differs", w, i, r)
				}
			}
		}
	}
}

// BenchmarkLanczos times the k=32 solve of the plan-mid-shaped fixture at one
// worker and at the host's budget, reporting operator applications and
// allocations per solve.
func BenchmarkLanczos(b *testing.B) {
	op := planMidOp()
	for _, w := range []int{1, parallel.Workers()} {
		b.Run(fmt.Sprintf("k=32/workers=%d", w), func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(w))
			b.ReportAllocs()
			matvecs := 0
			for i := 0; i < b.N; i++ {
				res, err := LargestContext(context.Background(), op, planMidOptions)
				if err != nil {
					b.Fatal(err)
				}
				matvecs += res.MatVecs
			}
			b.ReportMetric(float64(matvecs)/float64(b.N), "matvecs/op")
		})
	}
}
