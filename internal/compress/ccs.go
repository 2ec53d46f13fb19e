package compress

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// CCS is a sparse array in Compressed Column Storage: the column-major
// dual of CRS. The paper's RO, CO, VL arrays for the CCS method
// correspond to ColPtr, RowIdx, Val.
//
// RowIdx normally holds local row indices, but immediately after CFS
// compression of a partitioned piece it holds *global* indices; see
// ShiftRows.
type CCS struct {
	Rows, Cols int
	ColPtr     []int // len Cols+1, ColPtr[0] == 0, non-decreasing
	RowIdx     []int // len NNZ, ascending within each column
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CCS) NNZ() int { return len(m.Val) }

// CompressCCS compresses a dense array into CCS, charging the counter
// one operation per scanned element plus three per nonzero (the paper's
// rows*cols*(1+3s) accounting). It is the row-scan part kernel over the
// whole array, transposed by counting sort.
func CompressCCS(d *sparse.Dense, ctr *cost.Counter) *CCS {
	return CompressCCSPartGlobal(d.Row, indexRange(0, d.Rows()), indexRange(0, d.Cols()), ctr)
}

// CompressCCSFromCOO builds a CCS from a COO. The COO is sorted
// column-major internally; duplicates are rejected.
func CompressCCSFromCOO(c *sparse.COO) (*CCS, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := c.Clone()
	s.SortColMajor()
	for k := 1; k < len(s.Entries); k++ {
		if s.Entries[k].Row == s.Entries[k-1].Row && s.Entries[k].Col == s.Entries[k-1].Col {
			return nil, fmt.Errorf("compress: duplicate entry at (%d, %d)", s.Entries[k].Row, s.Entries[k].Col)
		}
	}
	m := &CCS{Rows: s.Rows, Cols: s.Cols, ColPtr: make([]int, s.Cols+1),
		RowIdx: make([]int, 0, s.NNZ()), Val: make([]float64, 0, s.NNZ())}
	for _, e := range s.Entries {
		m.RowIdx = append(m.RowIdx, e.Row)
		m.Val = append(m.Val, e.Val)
	}
	pos := 0
	for j := 0; j < s.Cols; j++ {
		m.ColPtr[j] = pos
		for pos < len(s.Entries) && s.Entries[pos].Col == j {
			pos++
		}
	}
	m.ColPtr[s.Cols] = pos
	return m, nil
}

// Decompress materialises the CCS as a dense array. RowIdx must hold
// local indices (call ShiftRows first if they are global).
func (m *CCS) Decompress() *sparse.Dense {
	d := sparse.NewDense(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			d.Set(m.RowIdx[k], j, m.Val[k])
		}
	}
	return d
}

// At returns the element at (i, j) using binary search within the column.
func (m *CCS) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("compress: CCS.At(%d, %d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.RowIdx[mid] < i:
			lo = mid + 1
		case m.RowIdx[mid] > i:
			hi = mid
		default:
			return m.Val[mid]
		}
	}
	return 0
}

// ColNNZ returns the number of nonzeros in column j.
func (m *CCS) ColNNZ(j int) int { return m.ColPtr[j+1] - m.ColPtr[j] }

// Validate checks the CCS structural invariants.
func (m *CCS) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("compress: CCS negative shape %dx%d", m.Rows, m.Cols)
	}
	if len(m.ColPtr) != m.Cols+1 {
		return fmt.Errorf("compress: CCS ColPtr len %d, want %d", len(m.ColPtr), m.Cols+1)
	}
	if m.ColPtr[0] != 0 {
		return fmt.Errorf("compress: CCS ColPtr[0] = %d, want 0", m.ColPtr[0])
	}
	if len(m.RowIdx) != len(m.Val) {
		return fmt.Errorf("compress: CCS RowIdx len %d != Val len %d", len(m.RowIdx), len(m.Val))
	}
	if m.ColPtr[m.Cols] != len(m.Val) {
		return fmt.Errorf("compress: CCS ColPtr[last] = %d, want nnz %d", m.ColPtr[m.Cols], len(m.Val))
	}
	// All pointers must be monotone before any element range is walked;
	// see the matching comment in CRS.Validate.
	for j := 0; j < m.Cols; j++ {
		if m.ColPtr[j+1] < m.ColPtr[j] {
			return fmt.Errorf("compress: CCS ColPtr decreases at col %d", j)
		}
	}
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			i := m.RowIdx[k]
			if i < 0 || i >= m.Rows {
				return fmt.Errorf("compress: CCS row index %d out of range %d at col %d", i, m.Rows, j)
			}
			if k > m.ColPtr[j] && m.RowIdx[k-1] >= i {
				return fmt.Errorf("compress: CCS rows not ascending in col %d", j)
			}
			if m.Val[k] == 0 {
				return fmt.Errorf("compress: CCS explicit zero at row %d col %d", i, j)
			}
		}
	}
	return nil
}

// Equal reports exact structural equality.
func (m *CCS) Equal(o *CCS) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || len(m.Val) != len(o.Val) {
		return false
	}
	for j := range m.ColPtr {
		if m.ColPtr[j] != o.ColPtr[j] {
			return false
		}
	}
	for k := range m.Val {
		if m.RowIdx[k] != o.RowIdx[k] || m.Val[k] != o.Val[k] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (m *CCS) Clone() *CCS {
	c := &CCS{Rows: m.Rows, Cols: m.Cols,
		ColPtr: make([]int, len(m.ColPtr)),
		RowIdx: make([]int, len(m.RowIdx)),
		Val:    make([]float64, len(m.Val))}
	copy(c.ColPtr, m.ColPtr)
	copy(c.RowIdx, m.RowIdx)
	copy(c.Val, m.Val)
	return c
}

// ShiftRows subtracts delta from every row index, charging one operation
// per index. This is the receiver-side global-to-local conversion for
// CCS-compressed pieces: Case 3.2.2 (row partition, delta = rows owned by
// lower ranks) and Case 3.2.3 (mesh partition, delta = rows above in the
// same mesh column). Delta = 0 is Case 3.2.1 (no conversion).
func (m *CCS) ShiftRows(delta int, ctr *cost.Counter) {
	if delta == 0 {
		return
	}
	for k := range m.RowIdx {
		m.RowIdx[k] -= delta
	}
	ctr.AddOps(len(m.RowIdx))
}
