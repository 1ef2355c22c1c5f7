package eigen

import (
	"errors"
	"math"
	"sort"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// ErrNoConverge is returned when an iterative eigensolver exceeds its
// iteration budget.
var ErrNoConverge = errors.New("eigen: eigensolver failed to converge")

// SymTridEigen computes all eigenvalues and (optionally) eigenvectors of the
// symmetric tridiagonal matrix with diagonal d (length n) and off-diagonal e
// (length n-1, e[i] couples i and i+1), using the implicit QL algorithm with
// Wilkinson shifts (EISPACK tql2). Eigenvalues are returned in ascending
// order. When vectors is true, the i-th column of the returned z holds the
// eigenvector for eigenvalue i, with z stored row-major as z[row*n+col].
func SymTridEigen(d, e []float64, vectors bool) (eig []float64, z []float64, err error) {
	n := len(d)
	if n == 0 {
		return nil, nil, nil
	}
	if len(e) != n-1 && !(n == 1 && len(e) == 0) {
		return nil, nil, errors.New("eigen: off-diagonal length must be n-1")
	}
	eig = append([]float64(nil), d...)
	work := make([]float64, n)
	copy(work, e)
	if vectors {
		z = make([]float64, n*n)
		for i := 0; i < n; i++ {
			z[i*n+i] = 1
		}
	}
	if err := tql2(eig, work, z); err != nil {
		return nil, nil, err
	}
	eig, z = sortAscending(eig, z, n)
	return eig, z, nil
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) in place with
// the implicit QL algorithm: on return d holds the (unsorted) eigenvalues.
// e has length n with e[i] coupling i and i+1 (e[n-1] is scratch). When z is
// non-nil (n×n row-major) every rotation is applied to its columns, so
// starting from Q yields Q times the tridiagonal matrix's eigenvectors.
func tql2(d, e, z []float64) error {
	n := len(d)
	const maxIter = 50
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find a small off-diagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= machEps*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxIter {
				return ErrNoConverge
			}
			// Wilkinson shift.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					for k := 0; k < n; k++ {
						f := z[k*n+i+1]
						z[k*n+i+1] = s*z[k*n+i] + c*f
						z[k*n+i] = c*z[k*n+i] - s*f
					}
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// sortAscending returns the eigenvalues sorted ascending, with the columns
// of the row-major n×n eigenvector matrix v (if non-nil) permuted alongside.
func sortAscending(eig, v []float64, n int) ([]float64, []float64) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return eig[idx[a]] < eig[idx[b]] })
	sortedEig := make([]float64, n)
	var sortedV []float64
	if v != nil {
		sortedV = make([]float64, n*n)
	}
	for newCol, oldCol := range idx {
		sortedEig[newCol] = eig[oldCol]
		if v != nil {
			for row := 0; row < n; row++ {
				sortedV[row*n+newCol] = v[row*n+oldCol]
			}
		}
	}
	return sortedEig, sortedV
}

// symEigen computes all eigenpairs of a dense symmetric n×n matrix a
// (row-major; a is not modified): Householder reduction to tridiagonal form
// (EISPACK tred2) followed by tql2 on the accumulated transformation. It is
// the O(n³) solver for the Lanczos projected problem. Eigenvalues are
// ascending; eigenvector i is the i-th column of v (row-major).
func symEigen(a []float64, n int) (eig []float64, v []float64, err error) {
	if len(a) != n*n {
		return nil, nil, errors.New("eigen: dense matrix size mismatch")
	}
	if n == 0 {
		return nil, nil, nil
	}
	v = append([]float64(nil), a...)
	d := make([]float64, n)
	e := make([]float64, n) // e[i] couples i-1 and i; e[0] is unused
	tred2(v, d, e, n)
	// tql2 wants e[i] coupling i and i+1.
	copy(e, e[1:])
	e[n-1] = 0
	if err := tql2(d, e, v); err != nil {
		return nil, nil, err
	}
	eig, v = sortAscending(d, v, n)
	return eig, v, nil
}

// tred2 reduces the symmetric matrix held in v (row-major n×n) to
// tridiagonal form by Householder similarity transformations. On return d
// is the diagonal, e[i] (1 ≤ i < n) the coupling of i-1 and i, and v the
// orthogonal Q with A = Q·T·Qᵀ.
func tred2(v, d, e []float64, n int) {
	for j := 0; j < n; j++ {
		d[j] = v[(n-1)*n+j]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under/overflow.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v[(i-1)*n+j]
				v[i*n+j] = 0
				v[j*n+i] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			f = d[j]
			v[j*n+i] = f
			g = e[j] + v[j*n+j]*f
			for k := j + 1; k <= i-1; k++ {
				g += v[k*n+j] * d[k]
				e[k] += v[k*n+j] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f = d[j]
			g = e[j]
			for k := j; k <= i-1; k++ {
				v[k*n+j] -= f*e[k] + g*d[k]
			}
			d[j] = v[(i-1)*n+j]
			v[i*n+j] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		v[(n-1)*n+i] = v[i*n+i]
		v[i*n+i] = 1
		if h := d[i+1]; h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v[k*n+i+1] / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += v[k*n+i+1] * v[k*n+j]
				}
				for k := 0; k <= i; k++ {
					v[k*n+j] -= g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			v[k*n+i+1] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v[(n-1)*n+j]
		v[(n-1)*n+j] = 0
	}
	v[(n-1)*n+n-1] = 1
	e[0] = 0
}

const machEps = 2.220446049250313e-16
