package compress

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// The ED scheme's special buffer (paper §3.3, Figure 6).
//
// Encoding walks one rectangular piece of the *global* array and produces
// a flat word buffer
//
//	[ R_0, R_1, ..., R_{m-1},  C_0, V_0, C_1, V_1, ... ]
//
// where, for the row-major (CRS-style) layout, R_i is the nonzero count
// of local row i and the (C, V) pairs list nonzeros row-major with C the
// *global* column index; the column-major (CCS-style) layout is the dual
// with R_j per local column and C the *global* row index. The buffer is
// exactly what travels on the wire — there is no separate packing step,
// which is why the ED distribution term in Tables 1-2 has no pack cost.
//
// Decoding rebuilds RO by prefix-summing the counts (RO[i+1] = RO[i]+R_i,
// the paper's formula), moves the C values into CO converting global to
// local indices by subtracting the receiver's minor-dimension origin
// (Cases 3.3.1-3.3.3), and moves the V values into VL.
//
// Indices are stored as float64 words; they are exact below 2^53, far
// beyond any representable array size here.

// Major selects the ED buffer layout.
type Major int

const (
	// RowMajor is the CRS-style layout: counts per row, C holds column indices.
	RowMajor Major = iota
	// ColMajor is the CCS-style layout: counts per column, C holds row indices.
	ColMajor
)

// String returns "row" or "col".
func (m Major) String() string {
	if m == RowMajor {
		return "row"
	}
	return "col"
}

// EncodeEDRect encodes the rectangle [r0, r0+nr) x [c0, c0+nc) of the
// global array g into a special buffer: EncodeEDPart over the
// rectangle's contiguous index ranges. Stored C indices are global. It
// panics if the rectangle leaves the array.
func EncodeEDRect(g *sparse.Dense, r0, c0, nr, nc int, major Major, ctr *cost.Counter) []float64 {
	if r0 < 0 || c0 < 0 || nr < 0 || nc < 0 || r0+nr > g.Rows() || c0+nc > g.Cols() {
		panic(fmt.Sprintf("compress: EncodeEDRect(%d,%d,%d,%d) out of range %dx%d",
			r0, c0, nr, nc, g.Rows(), g.Cols()))
	}
	return EncodeEDPart(g.Row, indexRange(r0, nr), indexRange(c0, nc), major, ctr)
}

// EncodeEDPart encodes the cross product rowMap x colMap of a global
// array, read through the row accessor (see part.go), into a special
// buffer whose C indices are global. The counter is charged one
// operation per scanned element plus three per nonzero — identical to
// CompressCRS/CCS accounting, which is why the paper's encoding time
// equals its CFS compression time.
func EncodeEDPart(row func(gi int) []float64, rowMap, colMap []int, major Major, ctr *cost.Counter) []float64 {
	return EncodeEDPartInto(row, rowMap, colMap, major, nil, ctr)
}

// EncodeEDPartInto is EncodeEDPart writing into buf's backing array when
// it is large enough — pass a zero-length buffer from machine.GetBuf to
// reuse one allocation across parts. Charging is identical.
func EncodeEDPartInto(row func(gi int) []float64, rowMap, colMap []int, major Major, buf []float64, ctr *cost.Counter) []float64 {
	sel := newColSel(colMap)
	s := scanRows(row, rowMap, sel, ctr)
	defer s.release()
	nr, nc := len(rowMap), len(colMap)
	if major == RowMajor {
		buf = sized(buf, nr+2*len(s.val))
		for li := 0; li < nr; li++ {
			buf[li] = float64(s.ptr[li+1] - s.ptr[li])
		}
		for k, lj := range s.idx {
			buf[nr+2*k] = float64(sel.global(lj)) // global column index
			buf[nr+2*k+1] = s.val[k]
		}
		return buf
	}
	buf = sized(buf, nc+2*len(s.val))
	s.colOrder(nc) // counting-sort the pairs into column order
	for j := 0; j < nc; j++ {
		buf[j] = float64(s.cptr[j+1] - s.cptr[j])
	}
	for li, gi := range rowMap {
		for k := s.ptr[li]; k < s.ptr[li+1]; k++ {
			buf[nc+2*s.idx[k]] = float64(gi) // global row index
			buf[nc+2*s.idx[k]+1] = s.val[k]
		}
	}
	return buf
}

// sized returns buf resliced to length n, reallocating when its
// backing array is too small. Contents are unspecified: the encoders
// overwrite every word.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// DecodeEDToCRS decodes a row-major special buffer into a local CRS of
// shape rows x cols, subtracting colOffset from every stored column index
// (Cases 3.3.1-3.3.3; pass 0 for no conversion). The counter is charged
// one operation per produced RO entry and per moved C and V word, plus
// one per index conversion when colOffset != 0 — the paper's decoding
// time ⌈n/p⌉·n·(2s' + 1/n) + 1.
func DecodeEDToCRS(buf []float64, rows, cols, colOffset int, ctr *cost.Counter) (*CRS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCRS negative shape %dx%d", rows, cols)
	}
	if len(buf) < rows {
		return nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), rows)
	}
	// The pair region fixes nnz up front, so RO and CO can be carved
	// from one backing allocation; the prefix sum must agree below.
	nnz := (len(buf) - rows) / 2
	ptr, idx := carveInts(rows+1, nnz)
	m := &CRS{Rows: rows, Cols: cols, RowPtr: ptr, ColIdx: idx}
	for i := 0; i < rows; i++ {
		r, err := wordToCount(buf[i])
		if err != nil {
			return nil, fmt.Errorf("compress: ED count for row %d: %w", i, err)
		}
		m.RowPtr[i+1] = m.RowPtr[i] + r // RO[i+1] = RO[i] + R_i
		ctr.AddOps(1)
	}
	ctr.AddOps(1) // RO[0] initialisation
	if sum := m.RowPtr[rows]; len(buf) != rows+2*sum {
		return nil, fmt.Errorf("compress: ED buffer length %d, want %d (rows %d + 2x%d nnz)",
			len(buf), rows+2*sum, rows, sum)
	}
	m.Val = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		c, err := wordToIndex(buf[rows+2*k])
		if err != nil {
			return nil, fmt.Errorf("compress: ED column index %d: %w", k, err)
		}
		m.ColIdx[k] = c - colOffset
		m.Val[k] = buf[rows+2*k+1]
		ctr.AddOps(2)
		if colOffset != 0 {
			ctr.AddOps(1)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded ED buffer invalid: %w", err)
	}
	return m, nil
}

// DecodeEDToCCS decodes a column-major special buffer into a local CCS of
// shape rows x cols, subtracting rowOffset from every stored row index.
func DecodeEDToCCS(buf []float64, rows, cols, rowOffset int, ctr *cost.Counter) (*CCS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCCS negative shape %dx%d", rows, cols)
	}
	if len(buf) < cols {
		return nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), cols)
	}
	nnz := (len(buf) - cols) / 2
	ptr, idx := carveInts(cols+1, nnz)
	m := &CCS{Rows: rows, Cols: cols, ColPtr: ptr, RowIdx: idx}
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
		return nil, fmt.Errorf("compress: ED buffer length %d, want %d (cols %d + 2x%d nnz)",
			len(buf), cols+2*sum, cols, sum)
	}
	m.Val = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		r, err := wordToIndex(buf[cols+2*k])
		if err != nil {
			return nil, fmt.Errorf("compress: ED row index %d: %w", k, err)
		}
		m.RowIdx[k] = r - rowOffset
		m.Val[k] = buf[cols+2*k+1]
		ctr.AddOps(2)
		if rowOffset != 0 {
			ctr.AddOps(1)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded ED buffer invalid: %w", err)
	}
	return m, nil
}

func wordToCount(w float64) (int, error) {
	n, err := wordToIndex(w)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative count %d", n)
	}
	return n, nil
}

// maxExactWord is 2^53: the first float64 magnitude at which integers
// stop being exactly representable. Words at or beyond it are rejected
// so hostile buffers cannot smuggle counts that overflow downstream
// length arithmetic (rows+1+2*nnz and friends).
const maxExactWord = 1 << 53

func wordToIndex(w float64) (int, error) {
	if math.IsNaN(w) || math.IsInf(w, 0) || w != math.Trunc(w) {
		return 0, fmt.Errorf("word %g is not an integer", w)
	}
	if w >= maxExactWord || w <= -maxExactWord {
		return 0, fmt.Errorf("word %g exceeds the exact integer range", w)
	}
	return int(w), nil
}
