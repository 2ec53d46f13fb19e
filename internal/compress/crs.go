// Package compress implements the data compression phase of the paper:
// the Compressed Row Storage (CRS) and Compressed Column Storage (CCS)
// formats, the ED scheme's special encode/decode buffers, wire
// packing/unpacking for the CFS scheme, and the global-to-local index
// conversions of Cases 3.2.1-3.2.3 and 3.3.1-3.3.3.
//
// Convention: this package uses 0-based indices and a 0-based pointer
// array (RowPtr[0] = 0), the standard CSR convention, where the paper
// uses Fortran-style 1-based arrays (RO[0] = 1). Counts and invariants
// are identical; the worked-example tests compare against the paper's
// figures via the documented +1 shift.
package compress

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// CRS is a sparse array in Compressed Row Storage. The paper's arrays
// RO, CO, VL correspond to RowPtr, ColIdx, Val.
//
// ColIdx normally holds local column indices, but immediately after CFS
// compression of a partitioned piece it holds *global* indices; see
// ShiftCols and the Case 3.2.x helpers.
type CRS struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1, RowPtr[0] == 0, non-decreasing
	ColIdx     []int // len NNZ, ascending within each row
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CRS) NNZ() int { return len(m.Val) }

// CompressCRS compresses a dense array into CRS, charging the counter in
// the paper's accounting: one operation per scanned element plus three
// operations per nonzero (the RO/CO/VL writes), i.e. rows*cols*(1+3s)
// total — the T_Compression term of Tables 1 and 2. It is the row-scan
// part kernel over the whole array.
func CompressCRS(d *sparse.Dense, ctr *cost.Counter) *CRS {
	return CompressCRSPartGlobal(d.Row, indexRange(0, d.Rows()), indexRange(0, d.Cols()), ctr)
}

// CompressCRSFromCOO builds a CRS from a COO. The COO is sorted row-major
// internally; duplicates must have been removed.
func CompressCRSFromCOO(c *sparse.COO) (*CRS, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := c.Clone()
	s.SortRowMajor()
	for k := 1; k < len(s.Entries); k++ {
		if s.Entries[k].Row == s.Entries[k-1].Row && s.Entries[k].Col == s.Entries[k-1].Col {
			return nil, fmt.Errorf("compress: duplicate entry at (%d, %d)", s.Entries[k].Row, s.Entries[k].Col)
		}
	}
	m := &CRS{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int, s.Rows+1),
		ColIdx: make([]int, 0, s.NNZ()), Val: make([]float64, 0, s.NNZ())}
	for _, e := range s.Entries {
		m.ColIdx = append(m.ColIdx, e.Col)
		m.Val = append(m.Val, e.Val)
	}
	pos := 0
	for i := 0; i < s.Rows; i++ {
		m.RowPtr[i] = pos
		for pos < len(s.Entries) && s.Entries[pos].Row == i {
			pos++
		}
	}
	m.RowPtr[s.Rows] = pos
	return m, nil
}

// Decompress materialises the CRS as a dense array. ColIdx must hold
// local indices (call ShiftCols first if they are global).
func (m *CRS) Decompress() *sparse.Dense {
	d := sparse.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// At returns the element at (i, j) using binary search within the row.
func (m *CRS) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("compress: CRS.At(%d, %d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.ColIdx[mid] < j:
			lo = mid + 1
		case m.ColIdx[mid] > j:
			hi = mid
		default:
			return m.Val[mid]
		}
	}
	return 0
}

// RowNNZ returns the number of nonzeros in row i.
func (m *CRS) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Validate checks the CRS structural invariants: pointer array shape and
// monotonicity, index ranges, ascending column order within rows, and
// no explicit zeros.
func (m *CRS) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("compress: CRS negative shape %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("compress: CRS RowPtr len %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("compress: CRS RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("compress: CRS ColIdx len %d != Val len %d", len(m.ColIdx), len(m.Val))
	}
	if m.RowPtr[m.Rows] != len(m.Val) {
		return fmt.Errorf("compress: CRS RowPtr[last] = %d, want nnz %d", m.RowPtr[m.Rows], len(m.Val))
	}
	// Monotonicity must hold for ALL rows before any element range is
	// walked: with RowPtr[0] = 0 and RowPtr[last] = nnz it bounds every
	// intermediate pointer, so a hostile decoded pointer like [0, 7, 0]
	// cannot index past ColIdx in the loop below.
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("compress: CRS RowPtr decreases at row %d", i)
		}
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j < 0 || j >= m.Cols {
				return fmt.Errorf("compress: CRS col index %d out of range %d at row %d", j, m.Cols, i)
			}
			if k > m.RowPtr[i] && m.ColIdx[k-1] >= j {
				return fmt.Errorf("compress: CRS cols not ascending in row %d", i)
			}
			if m.Val[k] == 0 {
				return fmt.Errorf("compress: CRS explicit zero at row %d col %d", i, j)
			}
		}
	}
	return nil
}

// Equal reports exact structural equality.
func (m *CRS) Equal(o *CRS) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || len(m.Val) != len(o.Val) {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for k := range m.Val {
		if m.ColIdx[k] != o.ColIdx[k] || m.Val[k] != o.Val[k] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (m *CRS) Clone() *CRS {
	c := &CRS{Rows: m.Rows, Cols: m.Cols,
		RowPtr: make([]int, len(m.RowPtr)),
		ColIdx: make([]int, len(m.ColIdx)),
		Val:    make([]float64, len(m.Val))}
	copy(c.RowPtr, m.RowPtr)
	copy(c.ColIdx, m.ColIdx)
	copy(c.Val, m.Val)
	return c
}

// ShiftCols subtracts delta from every column index, charging one
// operation per index. This is the receiver-side conversion of global to
// local indices: Case 3.2.2 (column partition, delta = columns owned by
// lower ranks) and Case 3.2.3 (mesh partition, delta = columns to the
// left in the same mesh row). Case 3.2.1 is delta = 0 (no conversion).
func (m *CRS) ShiftCols(delta int, ctr *cost.Counter) {
	if delta == 0 {
		return
	}
	for k := range m.ColIdx {
		m.ColIdx[k] -= delta
	}
	ctr.AddOps(len(m.ColIdx))
}
