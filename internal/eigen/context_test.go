package eigen

import (
	"context"
	"errors"
	"testing"

	"bootes/internal/faultinject"
	"bootes/internal/sparse"
)

func TestLargestContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := CSROp{M: sparse.Identity(200, false)}
	if _, err := LargestContext(ctx, op, Options{K: 4, Seed: 1, DenseFallbackDim: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Dense-fallback path honors cancellation too.
	if _, err := LargestContext(ctx, CSROp{M: sparse.Identity(20, false)}, Options{K: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("dense path err = %v, want context.Canceled", err)
	}
}

// TestLargestContextMatchesLargest: a live cancellable context, whose Done
// channel makes every matvec and parallel chunk check for cancellation, gives
// the same solve as an uncancellable background context.
func TestLargestContextMatchesLargest(t *testing.T) {
	a := ringGraph(200)
	op := NewNormalizedSimilarity(mustSimilarity(a, 0))
	plain, err := LargestContext(context.Background(), op, Options{K: 3, Seed: 7, DenseFallbackDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := LargestContext(ctx, op, Options{K: 3, Seed: 7, DenseFallbackDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Values {
		if plain.Values[i] != withCtx.Values[i] {
			t.Fatalf("value %d differs: %v vs %v", i, plain.Values[i], withCtx.Values[i])
		}
		for j := range plain.Vectors[i] {
			if plain.Vectors[i][j] != withCtx.Vectors[i][j] {
				t.Fatalf("vector %d[%d] differs", i, j)
			}
		}
	}
}

func TestOperatorApplyDimMismatchErrors(t *testing.T) {
	// Malformed inputs must produce errors, never panics (they used to
	// panic and could kill a serving process).
	a := ringGraph(32)
	ops := []Operator{
		CSROp{M: a},
		NewNormalizedSimilarity(mustSimilarity(a, 0)),
		NewImplicitSimilarity(a, 0, nil),
	}
	for _, op := range ops {
		short := make([]float64, op.Dim()-1)
		full := make([]float64, op.Dim())
		if err := op.Apply(short, full); err == nil {
			t.Errorf("%T accepted short x", op)
		}
		if err := op.Apply(full, short); err == nil {
			t.Errorf("%T accepted short y", op)
		}
		if err := op.Apply(full, make([]float64, op.Dim())); err != nil {
			t.Errorf("%T rejected valid input: %v", op, err)
		}
	}
}

func TestInjectedNoConverge(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.EigenNoConverge)
	op := CSROp{M: sparse.Identity(50, false)}
	if _, err := LargestContext(context.Background(), op, Options{K: 2}); !errors.Is(err, ErrNoConverge) {
		t.Fatalf("err = %v, want ErrNoConverge", err)
	}
	// Single-shot fault: the retry succeeds.
	if _, err := LargestContext(context.Background(), op, Options{K: 2}); err != nil {
		t.Fatalf("retry after injected fault failed: %v", err)
	}
}
