package sparse

import "fmt"

// Permutation is a row permutation: perm[newRow] = oldRow, i.e. the i-th row
// of the permuted matrix is row perm[i] of the original. This matches the
// "array of the final row permutation P" in the paper's algorithms.
type Permutation []int32

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Validate checks that p is a bijection on [0, n).
func (p Permutation) Validate(n int) error {
	if len(p) != n {
		return fmt.Errorf("%w: len=%d want %d", ErrPermLength, len(p), n)
	}
	seen := make([]bool, n)
	for i, v := range p {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: p[%d]=%d", ErrPermValue, i, v)
		}
		if seen[v] {
			return fmt.Errorf("%w: value %d repeated", ErrPermValue, v)
		}
		seen[v] = true
	}
	return nil
}

// Inverse returns q with q[oldRow] = newRow.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for newRow, oldRow := range p {
		q[oldRow] = int32(newRow)
	}
	return q
}

// IsIdentity reports whether p maps every index to itself.
func (p Permutation) IsIdentity() bool {
	for i, v := range p {
		if int(v) != i {
			return false
		}
	}
	return true
}

// PermuteRows returns the matrix whose i-th row is row perm[i] of m.
// Column order within rows is preserved, so the result is valid CSR.
func PermuteRows(m *CSR, perm Permutation) (*CSR, error) {
	if err := perm.Validate(m.Rows); err != nil {
		return nil, err
	}
	out := &CSR{Rows: m.Rows, Cols: m.Cols}
	out.RowPtr = make([]int64, m.Rows+1)
	out.Col = make([]int32, m.NNZ())
	if m.Val != nil {
		out.Val = make([]float64, m.NNZ())
	}
	var cursor int64
	for newRow, oldRow := range perm {
		lo, hi := m.RowPtr[oldRow], m.RowPtr[oldRow+1]
		n := hi - lo
		copy(out.Col[cursor:cursor+n], m.Col[lo:hi])
		if m.Val != nil {
			copy(out.Val[cursor:cursor+n], m.Val[lo:hi])
		}
		cursor += n
		out.RowPtr[newRow+1] = cursor
	}
	return out, nil
}

// UnpermuteRows restores the original row order of a matrix produced by
// PermuteRows(m, perm). This is the paper's post-processing step that
// restores matrix rows (and hence output rows of C) to their original order.
func UnpermuteRows(m *CSR, perm Permutation) (*CSR, error) {
	return PermuteRows(m, perm.Inverse())
}
