package compress

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/sparse"
)

func TestConvertColsToLocalStrided(t *testing.T) {
	// Cyclic column ownership {1, 3, 5}: global 3 -> local 1, etc.
	g := sparse.NewDense(2, 6)
	g.Set(0, 1, 1)
	g.Set(0, 5, 2)
	g.Set(1, 3, 3)
	colMap := []int{1, 3, 5}
	m := &CRS{Rows: 2, Cols: 3, RowPtr: []int{0, 2, 3}, ColIdx: []int{1, 5, 3}, Val: []float64{1, 2, 3}}
	var ctr cost.Counter
	if err := m.ConvertColsToLocal(colMap, &ctr); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 1}
	for k, w := range want {
		if m.ColIdx[k] != w {
			t.Errorf("ColIdx[%d] = %d, want %d", k, m.ColIdx[k], w)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if ctr.Ops != 3 {
		t.Errorf("conversion ops = %d, want 3", ctr.Ops)
	}
}

func TestConvertColsToLocalUnowned(t *testing.T) {
	m := &CRS{Rows: 1, Cols: 2, RowPtr: []int{0, 1}, ColIdx: []int{4}, Val: []float64{1}}
	if err := m.ConvertColsToLocal([]int{1, 3}, nil); err == nil {
		t.Error("unowned global index accepted")
	}
}

func TestConvertRowsToLocal(t *testing.T) {
	rowMap := []int{2, 5, 8}
	m := &CCS{Rows: 3, Cols: 2, ColPtr: []int{0, 2, 3}, RowIdx: []int{2, 8, 5}, Val: []float64{1, 2, 3}}
	if err := m.ConvertRowsToLocal(rowMap, nil); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 1}
	for k, w := range want {
		if m.RowIdx[k] != w {
			t.Errorf("RowIdx[%d] = %d, want %d", k, m.RowIdx[k], w)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.ConvertRowsToLocal([]int{0}, nil); err == nil {
		t.Error("second conversion against wrong map accepted")
	}
}

func TestEncodeEDPartMatchesRect(t *testing.T) {
	// For contiguous maps, EncodeEDPart must equal EncodeEDRect.
	g := sparse.PaperFigure1()
	rowMap := []int{3, 4, 5}
	colMap := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, major := range []Major{RowMajor, ColMajor} {
		got := EncodeEDPart(g.Row, rowMap, colMap, major, nil)
		want := EncodeEDRect(g, 3, 0, 3, 8, major, nil)
		if len(got) != len(want) {
			t.Fatalf("%v: length %d, want %d", major, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: word %d = %g, want %g", major, i, got[i], want[i])
			}
		}
	}
}

func TestEDMapRoundTripCyclic(t *testing.T) {
	// Cyclic row partition: part 1 of 3 owns rows {1, 4, 7, 10}.
	g := sparse.Uniform(12, 9, 0.3, 4)
	rowMap := []int{1, 4, 7, 10}
	colMap := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}

	buf := EncodeEDPart(g.Row, rowMap, colMap, RowMajor, nil)
	crs, err := DecodeEDToCRSMap(buf, len(rowMap), colMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.NewDense(len(rowMap), len(colMap))
	for li, gi := range rowMap {
		for lj, gj := range colMap {
			want.Set(li, lj, g.At(gi, gj))
		}
	}
	if !crs.Decompress().Equal(want) {
		t.Error("cyclic ED CRS round trip mismatch")
	}

	cbuf := EncodeEDPart(g.Row, rowMap, colMap, ColMajor, nil)
	ccs, err := DecodeEDToCCSMap(cbuf, len(colMap), rowMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ccs.Decompress().Equal(want) {
		t.Error("cyclic ED CCS round trip mismatch")
	}
}

func TestDecodeEDMapErrors(t *testing.T) {
	g := sparse.PaperFigure1()
	colMap := []int{0, 1, 2, 3, 4, 5, 6, 7}
	buf := EncodeEDPart(g.Row, []int{0, 1, 2}, colMap, RowMajor, nil)

	if _, err := DecodeEDToCRSMap(buf[:1], 3, colMap, nil); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := DecodeEDToCRSMap(buf[:len(buf)-1], 3, colMap, nil); err == nil {
		t.Error("truncated buffer accepted")
	}
	// Map that does not own the stored columns.
	if _, err := DecodeEDToCRSMap(buf, 3, []int{90, 91}, nil); err == nil {
		t.Error("foreign ownership map accepted")
	}

	cbuf := EncodeEDPart(g.Row, []int{0, 1, 2}, colMap, ColMajor, nil)
	if _, err := DecodeEDToCCSMap(cbuf, 8, []int{50}, nil); err == nil {
		t.Error("foreign row map accepted")
	}
	if _, err := DecodeEDToCCSMap(cbuf[:2], 8, []int{0, 1, 2}, nil); err == nil {
		t.Error("short CCS buffer accepted")
	}
}
