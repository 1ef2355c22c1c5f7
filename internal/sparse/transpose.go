package sparse

// Transpose returns mᵀ in CSR form. The result has sorted, unique column
// indices by construction. Runs in O(rows + cols + nnz).
func Transpose(m *CSR) *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows}
	t.RowPtr = make([]int64, m.Cols+1)
	nnz := m.NNZ()
	t.Col = make([]int32, nnz)
	if m.Val != nil {
		t.Val = make([]float64, nnz)
	}
	// Count entries per column of m (= per row of t).
	for _, c := range m.Col {
		t.RowPtr[c+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	// Scatter. next[j] is the write cursor for row j of t.
	next := make([]int64, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			j := m.Col[p]
			q := next[j]
			t.Col[q] = int32(i)
			if m.Val != nil {
				t.Val[q] = m.Val[p]
			}
			next[j] = q + 1
		}
	}
	return t
}

// ColCounts returns the number of stored entries in each column of m.
func ColCounts(m *CSR) []int {
	counts := make([]int, m.Cols)
	for _, c := range m.Col {
		counts[c]++
	}
	return counts
}
