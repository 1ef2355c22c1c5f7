package core

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// denseSimilarityMatrix is a plan-mid-shaped input whose explicit S is far
// larger than its pattern: 6144 rows of a scrambled-block matrix with 32
// nnz per row, on which the selector picks the exact tier.
var denseSimilarityMatrix = sync.OnceValue(func() *sparse.CSR {
	return workloads.Generate(workloads.ArchScrambledBlock, workloads.Params{
		Rows: 6144, Cols: 6144, Density: 32.0 / 6144, Groups: 16, Seed: 11,
	})
})

// TestExactTierDoesNotMaterializeSimilarity guards against S quietly coming
// back: a whole exact-tier spectral pass must allocate less than S alone
// would occupy.
func TestExactTierDoesNotMaterializeSimilarity(t *testing.T) {
	a := denseSimilarityMatrix()
	opts := SpectralOptions{K: 8, Seed: 1}
	if mode := EffectiveSimilarityMode(a, opts); mode != SimExact {
		t.Fatalf("fixture resolves to %v, want exact", mode)
	}
	sBytes := hubSimilarity(t, a).NNZ() * 12
	if patternBytes := 2 * a.NNZ() * 4; sBytes < 4*patternBytes {
		t.Fatalf("fixture S (%d B) is not much larger than Ā and Āᵀ (%d B)", sBytes, patternBytes)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (Spectral{Opts: opts}).ReorderContext(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc >= sBytes {
		t.Errorf("exact-tier spectral pass allocated %d B, want < nnz(S)·12 = %d B", alloc, sBytes)
	}
}

// TestExactTierFitsBudgetOfItsOperator: a memory budget between the
// matrix-free estimate and the estimate that charged for an explicit S lets
// the requested exact tier run undegraded instead of descending to the
// approx-similarity rung.
func TestExactTierFitsBudgetOfItsOperator(t *testing.T) {
	a := denseSimilarityMatrix()
	opts := SpectralOptions{K: 8, Seed: 1}
	matrixFree := estimateSpectralFootprint(a, opts)
	materialized := estimateFootprint(a, opts, true)
	if matrixFree >= materialized {
		t.Fatalf("matrix-free estimate %d B not below the materialized-S estimate %d B", matrixFree, materialized)
	}
	p := &Pipeline{
		ForceK:   8,
		Spectral: SpectralOptions{Seed: 1},
		Budget:   Budget{MaxFootprintBytes: (matrixFree + materialized) / 2},
	}
	res, err := p.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("plan degraded under the budget: %s", res.DegradedReason)
	}
	if res.SimilarityMode != SimExact.String() {
		t.Errorf("plan ran tier %q, want the requested exact tier", res.SimilarityMode)
	}
	if res.FootprintBytes > matrixFree {
		t.Errorf("realized footprint %d B exceeds the estimate %d B", res.FootprintBytes, matrixFree)
	}
}

// TestSpectralFootprintEstimateBoundsRealized: the pre-allocation estimate
// must never be below what the pass then reports, on every tier and with
// hub exclusion on (the Ā copy) and off (Ā shares the input's arrays).
func TestSpectralFootprintEstimateBoundsRealized(t *testing.T) {
	a := workloads.Generate(workloads.ArchPowerLaw, workloads.Params{
		Rows: 700, Cols: 500, Density: 0.02, Seed: 4,
	})
	for _, mode := range []SimilarityMode{SimExact, SimBitset, SimApprox, SimImplicit} {
		for _, hub := range []int{0, -1} {
			opts := SpectralOptions{K: 8, Seed: 1, Similarity: mode, HubThreshold: hub}
			sr, err := Spectral{Opts: opts}.ReorderContext(context.Background(), a)
			if err != nil {
				t.Fatalf("%v hub=%d: %v", mode, hub, err)
			}
			if est := estimateSpectralFootprint(a, opts); est < sr.FootprintBytes {
				t.Errorf("%v hub=%d: estimate %d B below realized %d B", mode, hub, est, sr.FootprintBytes)
			}
		}
	}
}
