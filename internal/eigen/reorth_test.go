package eigen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
// replaced. Faster kernels must not buy wall time with extra iterations, and
// the explicit and factored forms of the operator must both take it.
const planMidMatVecs = 280

// planMidOptions mirrors the options core.Spectral passes for k=32.
var planMidOptions = Options{K: 32, Tol: 1e-5, MaxRestarts: 12, MaxBasis: 80, Seed: 1}

// planMidMatrix is a 6144-row scrambled-block matrix with 32 nnz per row,
// together with its default hub threshold.
var planMidMatrix = sync.OnceValues(func() (*sparse.CSR, int) {
	a := workloads.Generate(workloads.ArchScrambledBlock, workloads.Params{
		Rows: planMidRows, Cols: planMidRows, Density: 32.0 / planMidRows, Groups: 16, Seed: 11,
	})
	return a, sparse.HubDegreeThresholdFromCounts(sparse.ColCounts(a))
})

// planMidOp is the normalized hub-capped similarity of planMidMatrix with
// S materialized, as auto-k and the ablation benchmarks build it.
var planMidOp = sync.OnceValue(func() *NormalizedSimilarity {
	a, hub := planMidMatrix()
	return NewNormalizedSimilarity(mustSimilarity(a, hub))
})

// planMidFactoredOp is the same operator applied matrix-free, as the exact
// tiers' spectral pass builds it.
var planMidFactoredOp = sync.OnceValue(func() *ImplicitSimilarity {
	a, hub := planMidMatrix()
	return NewImplicitSimilarity(a, hub, nil)
})

type namedOp struct {
	name string
	op   Operator
}

// planMidOps names both forms of the fixture operator.
func planMidOps() []namedOp {
	return []namedOp{{"explicit", planMidOp()}, {"factored", planMidFactoredOp()}}
}

func TestImplicitSimilarityMatchesExplicitPlanMid(t *testing.T) {
	explicit, factored := planMidOp(), planMidFactoredOp()
	if factored.Dim() != explicit.Dim() {
		t.Fatalf("dims %d vs %d", factored.Dim(), explicit.Dim())
	}
	for i := range explicit.InvSqrt {
		if math.Float64bits(factored.InvSqrt[i]) != math.Float64bits(explicit.InvSqrt[i]) {
			t.Fatalf("InvSqrt[%d] = %v, want %v bit for bit", i, factored.InvSqrt[i], explicit.InvSqrt[i])
		}
	}
	rng := rand.New(rand.NewSource(3))
	n := explicit.Dim()
	x, want, got := make([]float64, n), make([]float64, n), make([]float64, n)
	for trial := 0; trial < 3; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if err := explicit.Apply(x, want); err != nil {
			t.Fatal(err)
		}
		if err := factored.Apply(x, got); err != nil {
			t.Fatal(err)
		}
		diff, norm := 0.0, 0.0
		for i := range want {
			diff += (got[i] - want[i]) * (got[i] - want[i])
			norm += want[i] * want[i]
		}
		if math.Sqrt(diff) > 1e-12*math.Sqrt(norm) {
			t.Fatalf("trial %d: ‖Δy‖ = %.3g, want ≤ 1e-12·‖y‖ = %.3g", trial, math.Sqrt(diff), 1e-12*math.Sqrt(norm))
		}
	}
}

func TestLanczosPlanMidMatVecs(t *testing.T) {
	for _, tc := range planMidOps() {
		res, err := LargestContext(context.Background(), tc.op, planMidOptions)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.MatVecs != planMidMatVecs {
			t.Errorf("%s: MatVecs = %d, want %d", tc.name, res.MatVecs, planMidMatVecs)
		}
		if !res.Converged {
			t.Errorf("%s: fixture solve did not converge", tc.name)
		}
	}
}

func TestLanczosWorkerCountBitIdentical(t *testing.T) {
	if chunks := (planMidRows + reorthGrain - 1) / reorthGrain; chunks < 4 {
		t.Fatalf("fixture spans %d row chunks, want ≥ 4", chunks)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, tc := range planMidOps() {
		var ref *Result
		for _, w := range []int{1, 2, 4} {
			parallel.SetWorkers(w)
			res, err := LargestContext(context.Background(), tc.op, planMidOptions)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.MatVecs != ref.MatVecs || res.Converged != ref.Converged {
				t.Fatalf("%s workers=%d: matvecs %d converged %v, want %d %v",
					tc.name, w, res.MatVecs, res.Converged, ref.MatVecs, ref.Converged)
			}
			for i := range ref.Values {
				if math.Float64bits(res.Values[i]) != math.Float64bits(ref.Values[i]) {
					t.Fatalf("%s workers=%d: value %d = %v, want %v", tc.name, w, i, res.Values[i], ref.Values[i])
				}
				for r := range ref.Vectors[i] {
					if math.Float64bits(res.Vectors[i][r]) != math.Float64bits(ref.Vectors[i][r]) {
						t.Fatalf("%s workers=%d: vector %d row %d differs", tc.name, w, i, r)
					}
				}
			}
		}
	}
}

// BenchmarkLanczos times the k=32 solve of the plan-mid-shaped fixture over
// the explicit S and over the factored operator, at one worker and at the
// host's budget, reporting operator applications and allocations per solve.
func BenchmarkLanczos(b *testing.B) {
	for _, tc := range planMidOps() {
		for _, w := range []int{1, parallel.Workers()} {
			b.Run(fmt.Sprintf("k=32/op=%s/workers=%d", tc.name, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.ReportAllocs()
				matvecs := 0
				for i := 0; i < b.N; i++ {
					res, err := LargestContext(context.Background(), tc.op, planMidOptions)
					if err != nil {
						b.Fatal(err)
					}
					matvecs += res.MatVecs
				}
				b.ReportMetric(float64(matvecs)/float64(b.N), "matvecs/op")
			})
		}
	}
}
