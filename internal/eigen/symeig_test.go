package eigen

import (
	"math"
	"math/rand"
	"testing"
)

// symmetricCase is a dense symmetric test matrix, row-major.
type symmetricCase struct {
	name string
	n    int
	a    []float64
}

func randomSymmetric(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i*n+j], a[j*n+i] = v, v
		}
	}
	return a
}

// arrowheadTridiagonal is the projected matrix a thick restart produces:
// Ritz values on the first keep diagonal entries, their couplings to the
// residual direction in row/column keep, and a Lanczos tridiagonal after it.
func arrowheadTridiagonal(rng *rand.Rand, n, keep int) []float64 {
	a := make([]float64, n*n)
	set := func(i, j int, v float64) { a[i*n+j], a[j*n+i] = v, v }
	for i := 0; i < keep; i++ {
		set(i, i, 1-float64(i)/float64(2*keep))
		set(i, keep, 1e-3*rng.NormFloat64())
	}
	for i := keep; i < n; i++ {
		set(i, i, rng.Float64())
		if i+1 < n {
			set(i, i+1, 0.1+0.2*rng.Float64())
		}
	}
	return a
}

func symmetricCases() []symmetricCase {
	rng := rand.New(rand.NewSource(12))
	identity := make([]float64, 6*6)
	for i := 0; i < 6; i++ {
		identity[i*6+i] = 1
	}
	// Two identical 3×3 blocks: every eigenvalue has multiplicity 2.
	block := []float64{2, 1, 0, 1, 2, 1, 0, 1, 2}
	blockDiag := make([]float64, 6*6)
	for b := 0; b < 2; b++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				blockDiag[(3*b+i)*6+3*b+j] = block[i*3+j]
			}
		}
	}
	return []symmetricCase{
		{"n=1", 1, []float64{-3.5}},
		{"n=2", 2, []float64{1, 2, 2, -1}},
		{"zero", 5, make([]float64, 25)},
		{"identity", 6, identity},
		{"block-diagonal", 6, blockDiag},
		{"random-80", 80, randomSymmetric(rng, 80)},
		{"arrowhead-tridiagonal-80", 80, arrowheadTridiagonal(rng, 80, 40)},
	}
}

func TestSymEigenMatchesJacobi(t *testing.T) {
	for _, c := range symmetricCases() {
		t.Run(c.name, func(t *testing.T) {
			n, a := c.n, c.a
			orig := append([]float64(nil), a...)
			eig, v, err := symEigen(a, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != orig[i] {
					t.Fatal("symEigen modified its input")
				}
			}
			want, _, err := JacobiEigen(a, n)
			if err != nil {
				t.Fatal(err)
			}
			scale := 1.0
			for _, w := range want {
				scale = math.Max(scale, math.Abs(w))
			}
			for i := range want {
				if math.Abs(eig[i]-want[i]) > 1e-10*scale {
					t.Errorf("eig[%d] = %v, Jacobi %v", i, eig[i], want[i])
				}
				if i > 0 && eig[i] < eig[i-1] {
					t.Errorf("eigenvalues not ascending at %d", i)
				}
			}
			// Residuals ‖A·v_i − λ_i·v_i‖ and orthonormality VᵀV = I.
			for i := 0; i < n; i++ {
				r := 0.0
				for row := 0; row < n; row++ {
					av := 0.0
					for col := 0; col < n; col++ {
						av += a[row*n+col] * v[col*n+i]
					}
					d := av - eig[i]*v[row*n+i]
					r += d * d
				}
				if math.Sqrt(r) > 1e-10*scale {
					t.Errorf("eigenpair %d residual %g", i, math.Sqrt(r))
				}
				for j := 0; j <= i; j++ {
					g := 0.0
					for row := 0; row < n; row++ {
						g += v[row*n+i] * v[row*n+j]
					}
					want := 0.0
					if i == j {
						want = 1
					}
					if math.Abs(g-want) > 1e-12*float64(n) {
						t.Errorf("⟨v_%d, v_%d⟩ = %v, want %v", i, j, g, want)
					}
				}
			}
		})
	}
}

func TestSymEigenBadInput(t *testing.T) {
	if _, _, err := symEigen(make([]float64, 5), 2); err == nil {
		t.Error("size mismatch accepted")
	}
	if eig, v, err := symEigen(nil, 0); err != nil || eig != nil || v != nil {
		t.Errorf("empty case: %v %v %v", eig, v, err)
	}
}
