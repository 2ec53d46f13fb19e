package compress_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// Independent references for the row-scan kernels: the per-cell
// loops the kernels replaced, one cell accessor call and one counter
// charge per scanned element, walking column-major outputs down the
// columns. The kernels must reproduce their arrays, buffers and
// counters exactly.

func refCRSPart(at func(i, j int) float64, rowMap, colMap []int, ctr *cost.Counter) *compress.CRS {
	m := &compress.CRS{Rows: len(rowMap), Cols: len(colMap), RowPtr: make([]int, len(rowMap)+1)}
	for li, gi := range rowMap {
		for _, gj := range colMap {
			if v := at(gi, gj); v != 0 {
				m.ColIdx = append(m.ColIdx, gj)
				m.Val = append(m.Val, v)
				ctr.AddOps(3)
			}
		}
		m.RowPtr[li+1] = len(m.Val)
		ctr.AddOps(len(colMap))
	}
	return m
}

func refCCSPart(at func(i, j int) float64, rowMap, colMap []int, ctr *cost.Counter) *compress.CCS {
	m := &compress.CCS{Rows: len(rowMap), Cols: len(colMap), ColPtr: make([]int, len(colMap)+1)}
	for lj, gj := range colMap {
		for _, gi := range rowMap {
			if v := at(gi, gj); v != 0 {
				m.RowIdx = append(m.RowIdx, gi)
				m.Val = append(m.Val, v)
				ctr.AddOps(3)
			}
		}
		m.ColPtr[lj+1] = len(m.Val)
		ctr.AddOps(len(rowMap))
	}
	return m
}

func refEDPart(at func(i, j int) float64, rowMap, colMap []int, major compress.Major, ctr *cost.Counter) []float64 {
	outer, inner := rowMap, colMap
	if major == compress.ColMajor {
		outer, inner = colMap, rowMap
	}
	buf := make([]float64, len(outer))
	for lo, o := range outer {
		n := 0
		for _, in := range inner {
			i, j := o, in
			if major == compress.ColMajor {
				i, j = in, o
			}
			if v := at(i, j); v != 0 {
				buf = append(buf, float64(in), v)
				n++
				ctr.AddOps(3)
			}
		}
		buf[lo] = float64(n)
		ctr.AddOps(len(inner))
	}
	return buf
}

// strictRows is a row accessor over g that holds a kernel to the row
// accessor contract: it fails the test when a row is read twice or out
// of ascending order, and it returns one reused scratch slice, so a
// kernel that kept an earlier row would read the wrong values.
func strictRows(t *testing.T, g *sparse.Dense) func(gi int) []float64 {
	last := -1
	scratch := make([]float64, g.Cols())
	return func(gi int) []float64 {
		t.Helper()
		if gi <= last {
			t.Fatalf("row %d read after row %d: rows must be read at most once, in ascending order", gi, last)
		}
		last = gi
		copy(scratch, g.Row(gi))
		return scratch
	}
}

// kernelMaps yields the (rowMap, colMap) pairs a case is compressed
// over: every part of contiguous (row, col, mesh) and non-contiguous
// (cyclic row, cyclic col, 2-D cyclic) partitions, plus empty maps.
func kernelMaps(t *testing.T, g *sparse.Dense, procs int) map[string][2][]int {
	t.Helper()
	rows, cols := g.Rows(), g.Cols()
	all := func(n int) []int {
		m := make([]int, n)
		for i := range m {
			m[i] = i
		}
		return m
	}
	out := map[string][2][]int{
		"empty-rows": {nil, all(cols)},
		"empty-cols": {all(rows), nil},
		"whole":      {all(rows), all(cols)},
	}
	var parts []partition.Partition
	add := func(p partition.Partition, err error) {
		if err == nil {
			parts = append(parts, p)
		}
	}
	add(partition.NewRow(rows, cols, procs))
	add(partition.NewCol(rows, cols, procs))
	add(partition.NewMesh(rows, cols, 2, 2))
	add(partition.NewCyclicRow(rows, cols, procs))
	add(partition.NewCyclicCol(rows, cols, procs))
	add(partition.NewCyclicMesh(rows, cols, 2, 2, 1, 2))
	if len(parts) < 6 {
		t.Fatalf("only %d of 6 partitions build for %dx%d over %d parts", len(parts), rows, cols, procs)
	}
	for _, p := range parts {
		for k := 0; k < p.NumParts(); k++ {
			out[fmt.Sprintf("%s/%d", p.Name(), k)] = [2][]int{p.RowMap(k), p.ColMap(k)}
		}
	}
	return out
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRowScanKernelsMatchPerCellReference checks every row-scan kernel
// against the per-cell reference on the adversarial suite (empty, 1×n,
// n×1, dense, banded and random arrays) over contiguous, cyclic and
// empty maps: identical arrays and ED buffers and an identical
// cost.Counter, with every kernel reading rows through strictRows.
func TestRowScanKernelsMatchPerCellReference(t *testing.T) {
	for _, c := range check.Adversarial(80, 14) {
		g := c.G
		cases := kernelMaps(t, g, c.Procs)
		for name, maps := range cases {
			rowMap, colMap := maps[0], maps[1]
			where := fmt.Sprintf("%s %s", c.Name, name)

			var want, got cost.Counter
			wantCRS := refCRSPart(g.At, rowMap, colMap, &want)
			if crs := compress.CompressCRSPartGlobal(strictRows(t, g), rowMap, colMap, &got); !crs.Equal(wantCRS) || got != want {
				t.Fatalf("%s: CRS part differs from reference (counter %+v, want %+v)", where, got, want)
			}

			want, got = cost.Counter{}, cost.Counter{}
			wantCCS := refCCSPart(g.At, rowMap, colMap, &want)
			if ccs := compress.CompressCCSPartGlobal(strictRows(t, g), rowMap, colMap, &got); !ccs.Equal(wantCCS) || got != want {
				t.Fatalf("%s: CCS part differs from reference (counter %+v, want %+v)", where, got, want)
			}

			want, got = cost.Counter{}, cost.Counter{}
			wantJDS := compress.CRSToJDS(refCRSPart(g.At, rowMap, colMap, &want))
			want.AddOps(len(rowMap))
			if jds := compress.CompressJDSPartGlobal(strictRows(t, g), rowMap, colMap, &got); !jds.Equal(wantJDS) || got != want {
				t.Fatalf("%s: JDS part differs from reference (counter %+v, want %+v)", where, got, want)
			}

			for _, major := range []compress.Major{compress.RowMajor, compress.ColMajor} {
				want, got = cost.Counter{}, cost.Counter{}
				wantBuf := refEDPart(g.At, rowMap, colMap, major, &want)
				// A dirty, undersized and an oversized reused buffer must
				// both come back as exactly the reference words.
				for _, reuse := range [][]float64{{7, 7}, make([]float64, 3, len(wantBuf)+9)} {
					got = cost.Counter{}
					buf := compress.EncodeEDPartInto(strictRows(t, g), rowMap, colMap, major, reuse[:0], &got)
					if !sameFloats(buf, wantBuf) || got != want {
						t.Fatalf("%s: %s-major ED buffer differs from reference (counter %+v, want %+v)", where, major, got, want)
					}
				}
			}
		}

		// Whole-array kernels: SFC's receiver-side compression and the
		// rectangular ED encode are the same row scan.
		var want, got cost.Counter
		all := cases["whole"]
		if crs := compress.CompressCRS(g, &got); !crs.Equal(refCRSPart(g.At, all[0], all[1], &want)) || got != want {
			t.Fatalf("%s: CompressCRS differs from reference", c.Name)
		}
		want, got = cost.Counter{}, cost.Counter{}
		if ccs := compress.CompressCCS(g, &got); !ccs.Equal(refCCSPart(g.At, all[0], all[1], &want)) || got != want {
			t.Fatalf("%s: CompressCCS differs from reference", c.Name)
		}
		if g.Rows() >= 2 && g.Cols() >= 2 {
			r0, c0, nr, nc := 1, 1, g.Rows()-1, g.Cols()-1
			for _, major := range []compress.Major{compress.RowMajor, compress.ColMajor} {
				want, got = cost.Counter{}, cost.Counter{}
				ref := refEDPart(g.At, all[0][r0:], all[1][c0:], major, &want)
				if buf := compress.EncodeEDRect(g, r0, c0, nr, nc, major, &got); !sameFloats(buf, ref) || got != want {
					t.Fatalf("%s: EncodeEDRect %s-major differs from reference", c.Name, major)
				}
			}
		}
	}
}
