package core

import (
	"context"
	"fmt"
	"testing"

	"bootes/internal/parallel"
	"bootes/internal/workloads"
)

// BenchmarkEigensolve times the spectral reorder of a scrambled-block
// matrix at one worker and at the host's budget: a 3000-row k=8 case and a
// plan-mid-shaped k=32 case (6144 rows, 32 nnz per row), where the
// eigensolve dominates the plan.
func BenchmarkEigensolve(b *testing.B) {
	cases := []struct {
		name string
		k    int
		p    workloads.Params
	}{
		{"k=8", 8, workloads.Params{Rows: 3000, Cols: 3000, Density: 0.01, Groups: 16, Seed: 9}},
		{"k=32/rows=6144", 32, workloads.Params{Rows: 6144, Cols: 6144, Density: 32.0 / 6144, Groups: 8, Seed: 9}},
	}
	for _, c := range cases {
		a := workloads.Generate(workloads.ArchScrambledBlock, c.p)
		for _, w := range []int{1, parallel.Workers()} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(b *testing.B) {
				prev := parallel.SetWorkers(w)
				defer parallel.SetWorkers(prev)
				for i := 0; i < b.N; i++ {
					res, err := Spectral{Opts: SpectralOptions{K: c.k, Seed: 1}}.ReorderContext(context.Background(), a)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Perm) != a.Rows {
						b.Fatal("bad permutation")
					}
				}
			})
		}
	}
}

func BenchmarkSweep(b *testing.B) {
	a := workloads.Generate(workloads.ArchScrambledBlock, workloads.Params{
		Rows: 1500, Cols: 1500, Density: 0.012, Groups: 12, Seed: 4,
	})
	ks := []int{2, 4, 8, 16, 32}
	for _, w := range []int{1, parallel.Workers()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				entries, err := SpectralSweepContext(context.Background(), a, ks, SpectralOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(entries) != len(ks) {
					b.Fatal("bad sweep")
				}
			}
		})
	}
}
