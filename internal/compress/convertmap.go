package compress

import (
	"fmt"
	"sort"

	"repro/internal/cost"
)

// Map-based global-to-local index conversion. The paper's Cases
// 3.2.1-3.2.3 / 3.3.1-3.3.3 cover block partitions, where conversion is
// a single subtraction; cyclic and block-cyclic partitions (the BRS
// baseline's distribution rule) own strided index sets, so the receiver
// converts through its ownership map instead. localIndexOf is a binary
// search, charged as one operation per converted index to stay
// comparable with the subtraction path.

// localIndexOf returns the position of global index g within the sorted
// ownership map, or an error if g is not owned.
func localIndexOf(m []int, g int) (int, error) {
	i := sort.SearchInts(m, g)
	if i >= len(m) || m[i] != g {
		return 0, fmt.Errorf("compress: global index %d not in ownership map", g)
	}
	return i, nil
}

// ConvertColsToLocal rewrites global column indices into local ones via
// the sorted ownership map. For contiguous maps this equals
// ShiftCols(map[0]).
func (m *CRS) ConvertColsToLocal(colMap []int, ctr *cost.Counter) error {
	for k, g := range m.ColIdx {
		l, err := localIndexOf(colMap, g)
		if err != nil {
			return fmt.Errorf("compress: CRS col %d: %w", k, err)
		}
		m.ColIdx[k] = l
	}
	ctr.AddOps(len(m.ColIdx))
	return nil
}

// ConvertRowsToLocal rewrites global row indices into local ones via the
// sorted ownership map.
func (m *CCS) ConvertRowsToLocal(rowMap []int, ctr *cost.Counter) error {
	for k, g := range m.RowIdx {
		l, err := localIndexOf(rowMap, g)
		if err != nil {
			return fmt.Errorf("compress: CCS row %d: %w", k, err)
		}
		m.RowIdx[k] = l
	}
	ctr.AddOps(len(m.RowIdx))
	return nil
}

// DecodeEDToCRSMap decodes a row-major special buffer converting global
// column indices through the ownership map (cyclic partitions).
func DecodeEDToCRSMap(buf []float64, rows int, colMap []int, ctr *cost.Counter) (*CRS, error) {
	if rows < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCRSMap negative row count %d", rows)
	}
	if len(buf) < rows {
		return nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), rows)
	}
	nnz := (len(buf) - rows) / 2
	ptr, idx := carveInts(rows+1, nnz)
	m := &CRS{Rows: rows, Cols: len(colMap), RowPtr: ptr, ColIdx: idx}
	for i := 0; i < rows; i++ {
		r, err := wordToCount(buf[i])
		if err != nil {
			return nil, fmt.Errorf("compress: ED count for row %d: %w", i, err)
		}
		m.RowPtr[i+1] = m.RowPtr[i] + r
		ctr.AddOps(1)
	}
	ctr.AddOps(1)
	if sum := m.RowPtr[rows]; len(buf) != rows+2*sum {
		return nil, fmt.Errorf("compress: ED buffer length %d, want %d", len(buf), rows+2*sum)
	}
	m.Val = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		g, err := wordToIndex(buf[rows+2*k])
		if err != nil {
			return nil, fmt.Errorf("compress: ED column index %d: %w", k, err)
		}
		l, err := localIndexOf(colMap, g)
		if err != nil {
			return nil, fmt.Errorf("compress: ED column index %d: %w", k, err)
		}
		m.ColIdx[k] = l
		m.Val[k] = buf[rows+2*k+1]
		ctr.AddOps(3)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded ED buffer invalid: %w", err)
	}
	return m, nil
}

// DecodeEDToCCSMap decodes a column-major special buffer converting
// global row indices through the ownership map.
func DecodeEDToCCSMap(buf []float64, cols int, rowMap []int, ctr *cost.Counter) (*CCS, error) {
	if cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCCSMap negative col count %d", cols)
	}
	if len(buf) < cols {
		return nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), cols)
	}
	nnz := (len(buf) - cols) / 2
	ptr, idx := carveInts(cols+1, nnz)
	m := &CCS{Rows: len(rowMap), Cols: cols, ColPtr: ptr, RowIdx: idx}
	for j := 0; j < cols; j++ {
		r, err := wordToCount(buf[j])
		if err != nil {
			return nil, fmt.Errorf("compress: ED count for col %d: %w", j, err)
		}
		m.ColPtr[j+1] = m.ColPtr[j] + r
		ctr.AddOps(1)
	}
	ctr.AddOps(1)
	if sum := m.ColPtr[cols]; len(buf) != cols+2*sum {
		return nil, fmt.Errorf("compress: ED buffer length %d, want %d", len(buf), cols+2*sum)
	}
	m.Val = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		g, err := wordToIndex(buf[cols+2*k])
		if err != nil {
			return nil, fmt.Errorf("compress: ED row index %d: %w", k, err)
		}
		l, err := localIndexOf(rowMap, g)
		if err != nil {
			return nil, fmt.Errorf("compress: ED row index %d: %w", k, err)
		}
		m.RowIdx[k] = l
		m.Val[k] = buf[cols+2*k+1]
		ctr.AddOps(3)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded ED buffer invalid: %w", err)
	}
	return m, nil
}
