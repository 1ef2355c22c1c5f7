package core

import (
	"context"
	"testing"

	"bootes/internal/workloads"
)

func TestSpectralSweepMatchesFixedK(t *testing.T) {
	a := workloads.ScrambledBlock(workloads.Params{
		Rows: 1024, Cols: 1024, Density: 0.01, Seed: 9, Groups: 8,
	})
	entries, err := SpectralSweepContext(context.Background(), a, []int{2, 4, 8}, SpectralOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries", len(entries))
	}
	for i, e := range entries {
		if e.K != []int{2, 4, 8}[i] {
			t.Errorf("entry %d has K=%d", i, e.K)
		}
		if err := e.Perm.Validate(a.Rows); err != nil {
			t.Errorf("k=%d: %v", e.K, err)
		}
		if e.PreprocessTime <= 0 {
			t.Errorf("k=%d: missing time", e.K)
		}
	}
	// Permutations for different k must generally differ.
	same := true
	for i := range entries[0].Perm {
		if entries[0].Perm[i] != entries[2].Perm[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("k=2 and k=8 produced identical permutations")
	}
}

func TestSpectralSweepErrors(t *testing.T) {
	a := workloads.Random(workloads.Params{Rows: 64, Cols: 64, Density: 0.1, Seed: 1})
	if _, err := SpectralSweepContext(context.Background(), a, nil, SpectralOptions{}); err == nil {
		t.Error("empty k list accepted")
	}
	if _, err := SpectralSweepContext(context.Background(), a, []int{1}, SpectralOptions{}); err == nil {
		t.Error("k=1 accepted")
	}
	// k > n clamps rather than failing.
	entries, err := SpectralSweepContext(context.Background(), a, []int{2, 128}, SpectralOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := entries[1].Perm.Validate(a.Rows); err != nil {
		t.Error(err)
	}
}
