package refine

import (
	"context"
	"math"
	"testing"

	"bootes/internal/parallel"
	"bootes/internal/sparse"
	"bootes/internal/workloads"
)

// similarityFixtures builds the metamorphic corpus: the row-similarity
// matrices of 3 archetypes × 3 seeds, small enough for exhaustive property
// checks but structured enough to exercise every op's interesting paths
// (dense hub rows, empty overlap, ties).
func similarityFixtures(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	fixtures := map[string]*sparse.CSR{}
	archetypes := []workloads.Archetype{
		workloads.ArchScrambledBlock, workloads.ArchPowerLaw, workloads.ArchManySmallClusters,
	}
	for _, arch := range archetypes {
		for _, seed := range []int64{1, 2, 3} {
			a := workloads.Generate(arch, workloads.Params{Rows: 120, Cols: 120, Density: 0.05, Seed: seed})
			s, err := sparse.SimilarityContext(context.Background(), a, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s seed %d: invalid similarity: %v", arch, seed, err)
			}
			fixtures[arch.String()+"/"+string(rune('0'+seed))] = s
		}
	}
	return fixtures
}

// isSymmetric reports whether m equals its transpose in pattern and values.
func isSymmetric(m *sparse.CSR) bool {
	return sparse.Equal(m, sparse.Transpose(m))
}

// equalWithin reports shape- and pattern-identical matrices whose values
// agree within rel relative tolerance. Floating-point sums reassociate under
// permutation (Diffuse accumulates products in column order), so exact
// bit-equality is the wrong contract for cross-permutation comparisons.
func equalWithin(a, b *sparse.CSR, rel float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	if !sparse.Equal(a.Pattern(), b.Pattern()) {
		return false
	}
	for p := range a.Val {
		x, y := a.Val[p], b.Val[p]
		if x == y {
			continue
		}
		scale := math.Max(math.Abs(x), math.Abs(y))
		if math.Abs(x-y) > rel*scale {
			return false
		}
	}
	return true
}

func TestSymmetrizeSymmetricAndIdempotent(t *testing.T) {
	for name, s := range similarityFixtures(t) {
		t1, err := Symmetrize(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !isSymmetric(t1) {
			t.Errorf("%s: Symmetrize output is not symmetric", name)
		}
		t2, err := Symmetrize(t1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sparse.Equal(t1, t2) {
			t.Errorf("%s: Symmetrize is not idempotent", name)
		}
	}
}

func TestThresholdMonotoneInP(t *testing.T) {
	ps := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95}
	for name, s := range similarityFixtures(t) {
		prevNNZ := int64(-1)
		var prev *sparse.CSR
		for _, p := range ps {
			out, err := RowThreshold(s, p)
			if err != nil {
				t.Fatalf("%s p=%g: %v", name, p, err)
			}
			if out.NNZ() > s.NNZ() {
				t.Errorf("%s p=%g: thresholding increased nnz %d → %d", name, p, s.NNZ(), out.NNZ())
			}
			if prevNNZ >= 0 && out.NNZ() > prevNNZ {
				t.Errorf("%s: nnz not monotone in p: p=%g kept %d > %d", name, p, out.NNZ(), prevNNZ)
			}
			// Set containment: every entry the stricter threshold keeps, the
			// looser one kept too.
			if prev != nil {
				for i := 0; i < out.Rows; i++ {
					looser := map[int32]bool{}
					for _, c := range prev.Row(i) {
						looser[c] = true
					}
					for _, c := range out.Row(i) {
						if !looser[c] {
							t.Fatalf("%s p=%g: row %d entry %d survives the stricter threshold but not the looser", name, p, i, c)
						}
					}
				}
			}
			prevNNZ, prev = out.NNZ(), out
		}
	}
}

func TestThresholdRejectsBadPercentile(t *testing.T) {
	s, err := sparse.SimilarityContext(context.Background(), workloads.Generate(workloads.ArchRandom,
		workloads.Params{Rows: 20, Cols: 20, Density: 0.2, Seed: 1}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := RowThreshold(s, p); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
}

func TestRowMaxNormRowsAreMaxOne(t *testing.T) {
	for name, s := range similarityFixtures(t) {
		out := RowMaxNorm(s)
		for i := 0; i < out.Rows; i++ {
			rv := out.RowVals(i)
			if len(rv) == 0 {
				continue
			}
			max := 0.0
			for _, v := range rv {
				if v > max {
					max = v
				}
			}
			if max != 1.0 {
				t.Fatalf("%s: row %d max is %v, want exactly 1", name, i, max)
			}
		}
	}
}

func TestDiffusePreservesSymmetry(t *testing.T) {
	for name, s := range similarityFixtures(t) {
		out, err := Diffuse(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sparse.Equal(out.Pattern(), sparse.Transpose(out).Pattern()) {
			t.Errorf("%s: Diffuse output pattern is not symmetric", name)
		}
		if !equalWithin(out, sparse.Transpose(out), 1e-12) {
			t.Errorf("%s: Diffuse output values are not symmetric", name)
		}
	}
}

func TestApplyFullPipelineInvariants(t *testing.T) {
	o := Default()
	for name, s := range similarityFixtures(t) {
		out, err := Apply(context.Background(), s, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("%s: pipeline output invalid: %v", name, err)
		}
		if !isSymmetric(out) {
			t.Errorf("%s: full pipeline output is not symmetric", name)
		}
		for i := 0; i < out.Rows; i++ {
			for _, v := range out.RowVals(i) {
				if v > 1 || v < 0 || math.IsNaN(v) {
					t.Fatalf("%s: row %d value %v outside [0,1]", name, i, v)
				}
			}
		}
	}
}

// TestApplyBitIdenticalAcrossWorkerCounts pins the determinism contract: the
// full pipeline must produce byte-identical output for every worker budget
// (the BOOTES_WORKERS knob), because plan keys assume the refined similarity
// is a pure function of its input.
func TestApplyBitIdenticalAcrossWorkerCounts(t *testing.T) {
	o := Default()
	for name, s := range similarityFixtures(t) {
		var ref *sparse.CSR
		for _, workers := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(workers)
			out, err := Apply(context.Background(), s, o)
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if ref == nil {
				ref = out
				continue
			}
			if !sparse.Equal(ref, out) {
				t.Errorf("%s: output differs between 1 and %d workers", name, workers)
			}
		}
	}
}

// TestApplyPermutationEquivariant pins refine(P·S·Pᵀ) = P·refine(S)·Pᵀ: the
// pipeline must not depend on row order, only on the affinity structure.
// Patterns must match exactly; values within 1e-12 (Diffuse reassociates
// floating-point sums under relabeling).
func TestApplyPermutationEquivariant(t *testing.T) {
	o := Default()
	for name, s := range similarityFixtures(t) {
		perm := testPerm(s.Rows)
		ps, err := sparse.PermuteSymmetric(s, perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refinedPerm, err := Apply(context.Background(), ps, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refined, err := Apply(context.Background(), s, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		permRefined, err := sparse.PermuteSymmetric(refined, perm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalWithin(refinedPerm, permRefined, 1e-12) {
			t.Errorf("%s: refine(P·S·Pᵀ) ≠ P·refine(S)·Pᵀ", name)
		}
	}
}

// testPerm is a fixed non-trivial permutation: reversal composed with a
// stride-7 shuffle, deterministic and free of fixed points for n > 2.
func testPerm(n int) sparse.Permutation {
	p := make(sparse.Permutation, n)
	for i := range p {
		p[i] = int32((i*7 + n - 1 - i) % n)
	}
	seen := make([]bool, n)
	ok := true
	for _, v := range p {
		if seen[v] {
			ok = false
			break
		}
		seen[v] = true
	}
	if !ok {
		// stride collides with n: fall back to plain reversal.
		for i := range p {
			p[i] = int32(n - 1 - i)
		}
	}
	return p
}

func TestApplyRejectsHostileInput(t *testing.T) {
	if _, err := Apply(context.Background(), nil, Default()); err == nil {
		t.Error("nil matrix accepted")
	}
	rect, err := sparse.NewCSR(2, 3, []int64{0, 1, 2}, []int32{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(context.Background(), rect, Default()); err == nil {
		t.Error("rectangular matrix accepted")
	}
	sq, err := sparse.NewCSR(2, 2, []int64{0, 1, 2}, []int32{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.ThresholdP = 1.5
	if _, err := Apply(context.Background(), sq, bad); err == nil {
		t.Error("out-of-range percentile accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Apply(ctx, sq, Default()); err == nil {
		t.Error("cancelled context not honored")
	}
}

func TestOptionsString(t *testing.T) {
	if got := (Options{}).String(); got != "none" {
		t.Errorf("empty options = %q", got)
	}
	if got := Default().String(); got != "crop+thr0.95+sym+diffuse+rownorm" {
		t.Errorf("default options = %q", got)
	}
}
