package cluster

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func TestKMeansContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(1))
	n, dim := 500, 4
	points := make([]float64, n*dim)
	for i := range points {
		points[i] = rng.NormFloat64()
	}
	res, err := KMeansContext(ctx, points, n, dim, KMeansOptions{K: 4, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("KMeansContext = (%v, %v), want context.Canceled", res, err)
	}
}

// TestKMeansContextMatchesKMeans: a live cancellable context, whose Done
// channel makes every restart, iteration and parallel chunk check for
// cancellation, gives the same clustering as a background context.
func TestKMeansContextMatchesKMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, dim := 300, 3
	points := make([]float64, n*dim)
	for i := range points {
		points[i] = rng.NormFloat64()
	}
	opts := KMeansOptions{K: 5, Seed: 7}
	want, err := KMeansContext(context.Background(), points, n, dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := KMeansContext(ctx, points, n, dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Inertia != got.Inertia || want.Iters != got.Iters {
		t.Fatalf("KMeansContext diverged: inertia %v vs %v, iters %d vs %d",
			got.Inertia, want.Inertia, got.Iters, want.Iters)
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, got.Assign[i], want.Assign[i])
		}
	}
}
