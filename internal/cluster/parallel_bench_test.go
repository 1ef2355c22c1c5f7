package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bootes/internal/parallel"
)

func BenchmarkKMeans(b *testing.B) {
	const (
		n   = 6000
		dim = 16
		k   = 16
	)
	rng := rand.New(rand.NewSource(5))
	points := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		c := i % k
		for d := 0; d < dim; d++ {
			points[i*dim+d] = float64(c) + 0.1*rng.NormFloat64()
		}
	}
	for _, w := range []int{1, parallel.Workers()} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				res, err := KMeansContext(context.Background(), points, n, dim, KMeansOptions{K: k, Seed: 1, Restarts: 2, MaxIters: 20})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Assign) != n {
					b.Fatal("bad result")
				}
			}
		})
	}
}
