package compress

import (
	"slices"
	"sync"

	"repro/internal/cost"
)

// Row-scan part compression. Every dense-scan compressor in this
// package — CFS's root-side part compression (paper §3.2), ED's encode
// (§3.3) and SFC's receiver-side compression of a dense local (§3.1) —
// runs the same kernel: read each global row of the part once, as a
// slice, and keep the nonzeros that fall in the part's columns.
// Column-major outputs (CCS, the column-major ED buffer) come from the
// same row pass followed by a counting-sort transpose, so no kernel
// walks the columns of row-major memory.
//
// Row accessor contract: row(gi) returns global row gi as a slice
// indexed by global column. A kernel calls it at most once per entry
// of rowMap, in ascending order, and does not keep the slice past the
// next call — a streaming replay stages one row at a time and releases
// it as the scan moves on.
//
// Charging is the paper's compression accounting — one operation per
// scanned element plus three per nonzero (the RO/CO/VL writes), i.e.
// rows·cols·(1+3s) — booked once per call in bulk. The total is the
// same integer a per-cell loop accumulates, so virtual times are
// unchanged.

// colSel selects a part's columns out of a global row.
type colSel struct {
	colMap []int
	lo     int  // colMap[0] when the map is a contiguous range
	contig bool // the map is the range [lo, lo+len(colMap))
}

func newColSel(colMap []int) colSel {
	s := colSel{colMap: colMap, contig: true}
	for i := 1; i < len(colMap); i++ {
		if colMap[i] != colMap[i-1]+1 {
			s.contig = false
			break
		}
	}
	if s.contig && len(colMap) > 0 {
		s.lo = colMap[0]
	}
	return s
}

// appendRow appends the nonzeros of global row r that lie in the
// selected columns: local column indices to idx, values to val. The
// loop writes every scanned cell and advances only past nonzeros, so
// it has no data-dependent branch to mispredict.
func (s colSel) appendRow(r []float64, idx []int, val []float64) ([]int, []float64) {
	n, nc := len(val), len(s.colMap)
	idx, val = slices.Grow(idx, nc)[:n+nc], slices.Grow(val, nc)[:n+nc]
	if s.contig {
		for lj, v := range r[s.lo : s.lo+nc] {
			idx[n], val[n] = lj, v
			if v != 0 {
				n++
			}
		}
		return idx[:n], val[:n]
	}
	for lj, gj := range s.colMap {
		v := r[gj]
		idx[n], val[n] = lj, v
		if v != 0 {
			n++
		}
	}
	return idx[:n], val[:n]
}

// global returns the global column of local column lj.
func (s colSel) global(lj int) int {
	if s.contig {
		return s.lo + lj
	}
	return s.colMap[lj]
}

// rowScan is the row pass's staging: the part's nonzeros in row-major
// order as a row pointer array plus local column indices and values.
// Staging is drawn from scanPool and reused across calls, so a kernel
// allocates only its exact-size output.
type rowScan struct {
	ptr, idx []int
	val      []float64
	cptr     []int // column pointers, filled by colOrder
	next     []int // colOrder's per-column cursors
}

var scanPool = sync.Pool{New: func() any { return new(rowScan) }}

// scanRows runs the row pass over rowMap x sel and charges its
// compression cost. Release the result once its contents are copied out.
func scanRows(row func(gi int) []float64, rowMap []int, sel colSel, ctr *cost.Counter) *rowScan {
	s := scanPool.Get().(*rowScan)
	s.ptr, s.idx, s.val = append(s.ptr[:0], 0), s.idx[:0], s.val[:0]
	for _, gi := range rowMap {
		s.idx, s.val = sel.appendRow(row(gi), s.idx, s.val)
		s.ptr = append(s.ptr, len(s.val))
	}
	ctr.AddOps(len(rowMap)*len(sel.colMap) + 3*len(s.val))
	return s
}

func (s *rowScan) release() { scanPool.Put(s) }

// colOrder counting-sorts the scan into column-major order: it fills
// s.cptr with the column pointer array (len cols+1) and overwrites
// s.idx[k] with the column-major position of nonzero k. Rows are
// scanned in ascending order, so each column's entries stay ascending
// by row.
func (s *rowScan) colOrder(cols int) {
	s.cptr = append(s.cptr[:0], make([]int, cols+1)...)
	for _, lj := range s.idx {
		s.cptr[lj+1]++
	}
	for j := 0; j < cols; j++ {
		s.cptr[j+1] += s.cptr[j]
	}
	s.next = append(s.next[:0], s.cptr[:cols]...)
	for k, lj := range s.idx {
		s.idx[k] = s.next[lj]
		s.next[lj]++
	}
}

// indexRange returns the index map [lo, lo+n).
func indexRange(lo, n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = lo + i
	}
	return m
}

// CompressCRSPartGlobal compresses the cross product rowMap x colMap of
// a global array (read through the row accessor) into a CRS of local
// shape whose ColIdx entries are *global* column indices — CFS's root
// side: "the values stored in CO are global array indices", converted
// by the receiver after unpacking.
func CompressCRSPartGlobal(row func(gi int) []float64, rowMap, colMap []int, ctr *cost.Counter) *CRS {
	sel := newColSel(colMap)
	s := scanRows(row, rowMap, sel, ctr)
	defer s.release()
	ptr, idx := carveInts(len(s.ptr), len(s.idx))
	copy(ptr, s.ptr)
	for k, lj := range s.idx {
		idx[k] = sel.global(lj)
	}
	return &CRS{Rows: len(rowMap), Cols: len(colMap), RowPtr: ptr, ColIdx: idx, Val: append([]float64(nil), s.val...)}
}

// CompressCCSPartGlobal compresses the cross product rowMap x colMap
// into a CCS of local shape whose RowIdx entries are *global* row
// indices.
func CompressCCSPartGlobal(row func(gi int) []float64, rowMap, colMap []int, ctr *cost.Counter) *CCS {
	s := scanRows(row, rowMap, newColSel(colMap), ctr)
	defer s.release()
	s.colOrder(len(colMap))
	ptr, idx := carveInts(len(s.cptr), len(s.idx))
	copy(ptr, s.cptr)
	m := &CCS{Rows: len(rowMap), Cols: len(colMap), ColPtr: ptr, RowIdx: idx, Val: make([]float64, len(s.val))}
	for li, gi := range rowMap {
		for k := s.ptr[li]; k < s.ptr[li+1]; k++ {
			m.RowIdx[s.idx[k]] = gi
			m.Val[s.idx[k]] = s.val[k]
		}
	}
	return m
}
