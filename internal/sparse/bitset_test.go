package sparse

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bootes/internal/parallel"
)

// hostileBitPatterns are row supports chosen to stress the packer's word
// handling: empty rows, single bits at word boundaries (63/64/65), bits
// sharing one word, bits one-per-word, a fully dense row, and the last
// representable column.
func hostileBitPatterns(cols int) *CSR {
	coo := NewCOO(8, cols, true)
	// row 0: empty
	coo.AddPattern(1, 63)
	coo.AddPattern(1, 64)
	coo.AddPattern(1, 65)
	for c := 0; c < 64 && c < cols; c++ {
		coo.AddPattern(2, c) // one full word
	}
	for c := 0; c < cols; c += 64 {
		coo.AddPattern(3, c) // one bit per word
	}
	for c := 0; c < cols; c++ {
		coo.AddPattern(4, c) // fully dense row
	}
	coo.AddPattern(5, cols-1)
	coo.AddPattern(6, 0)
	coo.AddPattern(6, cols-1)
	coo.AddPattern(7, 63)
	coo.AddPattern(7, 127)
	m, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return m
}

func TestPackBitRowsHostilePatterns(t *testing.T) {
	for _, cols := range []int{1, 63, 64, 65, 128, 129, 200} {
		m := hostileBitPatterns(maxInt(cols, 130))
		br := PackBitRows(m)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Rows; j++ {
				want := IntersectionSize(m, i, j)
				if got := br.IntersectCount(i, j); got != want {
					t.Fatalf("cols=%d IntersectCount(%d,%d)=%d want %d", cols, i, j, got, want)
				}
			}
		}
	}
}

func TestPackBitRowsRandomMatchesMerge(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 60, 150, 0.08)
		br := PackBitRows(m)
		for i := 0; i < m.Rows; i++ {
			for j := i; j < m.Rows; j++ {
				want := IntersectionSize(m, i, j)
				if got := br.IntersectCount(i, j); got != want {
					t.Fatalf("seed=%d IntersectCount(%d,%d)=%d want %d", seed, i, j, got, want)
				}
			}
		}
	}
}

// TestSimilarityBitsetMatchesMerge is the kernel-level equivalence gate: the
// bitset similarity must be bit-identical to the merge path across worker
// counts {1,2,8} × seeds {1,2,3}, including hub exclusion.
func TestSimilarityBitsetMatchesMerge(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a := benchMatrix(400, 12, seed)
		hub := HubDegreeThresholdFromCounts(ColCounts(a))
		want, err := SimilarityContext(context.Background(), a, hub, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(w)
			got, err := SimilarityBitsetContext(context.Background(), a, hub, nil)
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(want, got) {
				t.Fatalf("seed=%d workers=%d: bitset similarity differs from merge path", seed, w)
			}
		}
	}
}

func TestSimilarityBitsetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimilarityBitsetContext(ctx, benchMatrix(64, 4, 1), 0, nil); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestSimilarityBitsetEmptyAndTiny(t *testing.T) {
	for _, m := range []*CSR{Zero(0, 0), Zero(5, 7), Identity(3, false)} {
		want, err := SimilarityContext(context.Background(), m, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimilarityBitsetContext(context.Background(), m, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got) {
			t.Fatalf("bitset similarity differs for %v", m)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FuzzBitsetPack feeds hostile row patterns to the packer and checks the
// packed intersection counts — and the full bitset similarity — against the
// merge-based reference.
func FuzzBitsetPack(f *testing.F) {
	f.Add(int64(1), 40, 90, 10)
	f.Add(int64(2), 1, 1, 100)
	f.Add(int64(3), 30, 64, 95)
	f.Add(int64(4), 16, 129, 50)
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, pct int) {
		rows = 1 + absInt(rows)%48
		cols = 1 + absInt(cols)%200
		density := float64(absInt(pct)%101) / 100
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, rows, cols, density)
		br := PackBitRows(m)
		for i := 0; i < m.Rows; i++ {
			j := rng.Intn(m.Rows)
			if got, want := br.IntersectCount(i, j), IntersectionSize(m, i, j); got != want {
				t.Fatalf("IntersectCount(%d,%d)=%d want %d", i, j, got, want)
			}
		}
		want, err := SimilarityContext(context.Background(), m, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimilarityBitsetContext(context.Background(), m, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got) {
			t.Fatal("bitset similarity differs from merge path")
		}
	})
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkSimilarityBitset(b *testing.B) {
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
				s, err := spgemmCountBitset(context.Background(), ap, at)
				if err != nil || s.NNZ() == 0 {
					b.Fatal("empty similarity matrix")
				}
			}
		})
	}
}
