package core

import (
	"context"
	"testing"

	"bootes/internal/sparse"
	"bootes/internal/trafficmodel"
	"bootes/internal/workloads"
)

func TestRecursiveProducesValidPermutation(t *testing.T) {
	a := workloads.ScrambledBlock(workloads.Params{
		Rows: 2048, Cols: 2048, Density: 0.006, Seed: 3, Groups: 32,
	})
	res, err := Recursive{K: 4, MaxClusterRows: 128, Opts: SpectralOptions{Seed: 1}}.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Perm.Validate(a.Rows); err != nil {
		t.Fatal(err)
	}
	if !res.Reordered {
		t.Error("recursive reorder returned identity on a block matrix")
	}
}

func TestRecursiveBeatsFlatWhenGroupsExceedK(t *testing.T) {
	// 64 hidden groups but flat k is capped at 8: recursion should separate
	// groups the flat clustering merges.
	a := workloads.ScrambledBlock(workloads.Params{
		Rows: 4096, Cols: 4096, Density: 0.004, Seed: 5, Groups: 64,
	})
	const cache = 24 << 10
	base, err := trafficmodel.EstimateB(a, a, cache, 12)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Spectral{Opts: SpectralOptions{K: 8, Seed: 1}}.ReorderContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recursive{K: 8, MaxClusterRows: 96, Opts: SpectralOptions{Seed: 1}}.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	flatEst, err := trafficmodel.EstimateBWithPerm(a, a, flat.Perm, cache, 12)
	if err != nil {
		t.Fatal(err)
	}
	recEst, err := trafficmodel.EstimateBWithPerm(a, a, rec.Perm, cache, 12)
	if err != nil {
		t.Fatal(err)
	}
	flatRatio := float64(flatEst.BTraffic) / float64(base.BTraffic)
	recRatio := float64(recEst.BTraffic) / float64(base.BTraffic)
	t.Logf("flat k=8 ratio %.3f, recursive ratio %.3f", flatRatio, recRatio)
	if recRatio >= flatRatio {
		t.Errorf("recursion (%.3f) did not improve on flat clustering (%.3f)", recRatio, flatRatio)
	}
}

func TestRecursiveSmallMatrixIsIdentity(t *testing.T) {
	a := sparse.Identity(50, false)
	res, err := Recursive{K: 8, MaxClusterRows: 256, Opts: SpectralOptions{Seed: 1}}.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Perm.IsIdentity() {
		t.Error("tiny matrix should not be reordered (below MaxClusterRows)")
	}
}

func TestRecursiveDepthBound(t *testing.T) {
	a := workloads.ScrambledBlock(workloads.Params{
		Rows: 1024, Cols: 1024, Density: 0.01, Seed: 7, Groups: 16,
	})
	// Depth 1 means a single flat pass.
	res, err := Recursive{K: 4, MaxClusterRows: 8, MaxDepth: 1, Opts: SpectralOptions{Seed: 1}}.Reorder(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Perm.Validate(a.Rows); err != nil {
		t.Fatal(err)
	}
}
