package core

import (
	"context"
	"fmt"
	"testing"

	"bootes/internal/parallel"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// equivWorkloads returns the three structurally distinct archetypes the
// determinism contract is asserted on: a scrambled block matrix (the
// reorder-friendly case), a power-law graph (hub-heavy, exercises hub
// exclusion), and an FEM mesh (banded coupling).
func equivWorkloads(seed int64) map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"scrambled": workloads.Generate(workloads.ArchScrambledBlock, workloads.Params{
			Rows: 480, Cols: 480, Density: 0.03, Groups: 6, Seed: seed,
		}),
		"powerlaw": workloads.Generate(workloads.ArchPowerLaw, workloads.Params{
			Rows: 400, Cols: 400, Density: 0.02, Seed: seed,
		}),
		"fem": workloads.Generate(workloads.ArchFEM, workloads.Params{
			Rows: 450, Cols: 450, Density: 0.02, Seed: seed,
		}),
	}
}

// spectralFingerprint captures everything the determinism contract covers
// for one Spectral.ReorderContext run.
type spectralFingerprint struct {
	perm    []int32
	assign  []int32
	inertia float64
}

func fingerprint(t *testing.T, a *sparse.CSR, seed int64) spectralFingerprint {
	t.Helper()
	res, err := Spectral{Opts: SpectralOptions{K: 8, Seed: seed}}.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatalf("Reorder: %v", err)
	}
	return spectralFingerprint{perm: res.Perm, assign: res.Assign, inertia: res.Inertia}
}

func sameInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpectralParallelEquivalence asserts the PR's hard requirement: for
// fixed seeds, the parallel pipeline returns bit-identical permutations,
// assignments, and inertia for every worker count, including the forced
// sequential mode.
func TestSpectralParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for name, a := range equivWorkloads(seed) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				restore := parallel.Sequential()
				ref := fingerprint(t, a, seed)
				restore()
				for _, w := range []int{1, 2, 8} {
					prev := parallel.SetWorkers(w)
					got := fingerprint(t, a, seed)
					parallel.SetWorkers(prev)
					if !sameInt32(ref.perm, got.perm) {
						t.Fatalf("workers=%d: permutation differs from sequential", w)
					}
					if !sameInt32(ref.assign, got.assign) {
						t.Fatalf("workers=%d: assignment differs from sequential", w)
					}
					if got.inertia != ref.inertia {
						t.Fatalf("workers=%d: inertia %v != sequential %v", w, got.inertia, ref.inertia)
					}
				}
			})
		}
	}
}

// TestSweepParallelEquivalence asserts the same contract for the per-k
// parallel SpectralSweepContext: entry order, permutations, and inertia must not
// depend on the worker count.
func TestSweepParallelEquivalence(t *testing.T) {
	ks := []int{2, 4, 8}
	for _, seed := range []int64{1, 2, 3} {
		for name, a := range equivWorkloads(seed) {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				restore := parallel.Sequential()
				ref, err := SpectralSweepContext(context.Background(), a, ks, SpectralOptions{Seed: seed})
				restore()
				if err != nil {
					t.Fatalf("sequential sweep: %v", err)
				}
				for _, w := range []int{1, 2, 8} {
					prev := parallel.SetWorkers(w)
					got, err := SpectralSweepContext(context.Background(), a, ks, SpectralOptions{Seed: seed})
					parallel.SetWorkers(prev)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if len(got) != len(ref) {
						t.Fatalf("workers=%d: %d entries, want %d", w, len(got), len(ref))
					}
					for i := range ref {
						if got[i].K != ref[i].K {
							t.Fatalf("workers=%d: entry %d has k=%d, want %d", w, i, got[i].K, ref[i].K)
						}
						if !sameInt32(ref[i].Perm, got[i].Perm) {
							t.Fatalf("workers=%d k=%d: permutation differs from sequential", w, ref[i].K)
						}
						if got[i].Inertia != ref[i].Inertia {
							t.Fatalf("workers=%d k=%d: inertia %v != sequential %v", w, ref[i].K, got[i].Inertia, ref[i].Inertia)
						}
					}
				}
			})
		}
	}
}

// hubSimilarity builds the hub-capped S = Ā·Āᵀ at the default threshold.
func hubSimilarity(t *testing.T, a *sparse.CSR) *sparse.CSR {
	t.Helper()
	counts := sparse.ColCounts(a)
	s, err := sparse.SimilarityContext(context.Background(), a, sparse.HubDegreeThresholdFromCounts(counts), counts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSimilarityParallelEquivalence pins the two-pass parallel similarity
// construction to the sequential result at the matrix level: identical
// pattern and counts for every worker count.
func TestSimilarityParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for name, a := range equivWorkloads(seed) {
			restore := parallel.Sequential()
			ref := hubSimilarity(t, a)
			restore()
			for _, w := range []int{1, 2, 8} {
				prev := parallel.SetWorkers(w)
				got := hubSimilarity(t, a)
				parallel.SetWorkers(prev)
				if !sparse.Equal(ref, got) {
					t.Fatalf("%s/seed%d workers=%d: similarity matrix differs from sequential", name, seed, w)
				}
			}
		}
	}
}
