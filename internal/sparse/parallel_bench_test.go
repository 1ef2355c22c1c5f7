package sparse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bootes/internal/parallel"
)

// benchMatrix builds a block-structured pattern matrix with a deterministic
// seed. The input is identical for every worker count, so the workers=1 and
// workers=max timings are directly comparable.
func benchMatrix(n, rowNNZ int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	groups := 8
	ptr := make([]int64, n+1)
	var col []int32
	for i := 0; i < n; i++ {
		g := i % groups
		base := g * (n / groups)
		seen := map[int32]bool{}
		for len(seen) < rowNNZ {
			c := int32(base + rng.Intn(n/groups))
			seen[c] = true
		}
		row := make([]int32, 0, len(seen))
		for c := range seen {
			row = append(row, c)
		}
		sortInt32(row)
		col = append(col, row...)
		ptr[i+1] = int64(len(col))
	}
	return &CSR{Rows: n, Cols: n, RowPtr: ptr, Col: col}
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// benchWorkerCounts returns the worker counts each parallel benchmark is
// sampled at: sequential and the full budget.
func benchWorkerCounts() []int {
	return []int{1, parallel.Workers()}
}

func BenchmarkSimilarity(b *testing.B) {
	a := benchMatrix(2000, 24, 7)
	counts := ColCounts(a)
	ap := DropHubColumnsWithCounts(a.Pattern(), HubDegreeThresholdFromCounts(counts), counts)
	at := Transpose(ap)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := spgemmCount(context.Background(), ap, at)
				if err != nil || s.NNZ() == 0 {
					b.Fatal("empty similarity matrix")
				}
			}
		})
	}
}

func BenchmarkSpMV(b *testing.B) {
	a := benchMatrix(4000, 32, 11)
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			b.SetBytes(int64(a.NNZ()) * 12)
			for i := 0; i < b.N; i++ {
				if err := SpMV(a, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
