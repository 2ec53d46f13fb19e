package spops

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// TestTripletBuffersRejectMalformed feeds the B-row decoder (scatter
// and fetch receivers) and the C merge (gather receiver) buffers that
// are truncated, out of range, not integers, or out of row order. Each
// must fail with an error wrapping ErrBadTriplets, never panic.
func TestTripletBuffersRejectMalformed(t *testing.T) {
	const rows, cols = 4, 5
	cases := []struct {
		name string
		buf  []float64
	}{
		{"odd-length", []float64{0, 1, 2.5, 1}},
		{"row-equals-rows", []float64{0, 0, 1, rows, 0, 1}},
		{"col-minus-one", []float64{0, -1, 1}},
		{"col-equals-cols", []float64{0, cols, 1}},
		{"nan-row", []float64{math.NaN(), 0, 1}},
		{"nan-col", []float64{0, math.NaN(), 1}},
		{"inf-row", []float64{math.Inf(1), 0, 1}},
		{"fractional-col", []float64{0, 1.5, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := decodeRows(tc.buf, make([][]float64, rows), 0, rows, cols); !errors.Is(err, ErrBadTriplets) {
				t.Errorf("decodeRows: %v, want ErrBadTriplets", err)
			}
			bufs := [][]float64{{0, 0, 1}, tc.buf}
			if _, err := mergeC(bufs, rows, cols, newSPA(cols)); !errors.Is(err, ErrBadTriplets) {
				t.Errorf("mergeC: %v, want ErrBadTriplets", err)
			}
		})
	}
	t.Run("rows-out-of-order", func(t *testing.T) {
		buf := []float64{2, 0, 1, 1, 0, 1}
		if err := decodeRows(buf, make([][]float64, rows), 0, rows, cols); !errors.Is(err, ErrBadTriplets) {
			t.Errorf("decodeRows: %v, want ErrBadTriplets", err)
		}
	})
	t.Run("row-outside-sender-block", func(t *testing.T) {
		if err := decodeRows([]float64{1, 0, 1}, make([][]float64, rows), 2, 4, cols); !errors.Is(err, ErrBadTriplets) {
			t.Errorf("decodeRows: %v, want ErrBadTriplets", err)
		}
	})
}

// TestMergeCSumsPartials checks the IO-side merge on partial rows from
// two ranks: duplicates are summed, an exact zero sum is dropped, and a
// row split across buffers comes out with ascending columns.
func TestMergeCSumsPartials(t *testing.T) {
	bufs := [][]float64{
		{0, 1, 2, 0, 3, 1, 2, 4, 5},
		{0, 1, -2, 1, 0, 4, 2, 0, 6},
	}
	c, err := mergeC(bufs, 3, 5, newSPA(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 4}; !slices.Equal(c.RowPtr, want) {
		t.Fatalf("RowPtr %v, want %v", c.RowPtr, want)
	}
	if want := []int{3, 0, 0, 4}; !slices.Equal(c.ColIdx, want) {
		t.Fatalf("ColIdx %v, want %v", c.ColIdx, want)
	}
	if want := []float64{1, 4, 6, 5}; !slices.Equal(c.Val, want) {
		t.Fatalf("Val %v, want %v", c.Val, want)
	}
}
