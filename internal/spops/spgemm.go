package spops

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
)

// ErrBadTriplets reports a received SpGEMM triplet buffer that does not
// decode: a length not a multiple of three, a row or column that is not
// an integer in the expected range, or B rows out of ascending order.
var ErrBadTriplets = errors.New("spops: malformed triplet buffer")

// DistSpGEMM computes C = A·B where A is the plan's distributed array
// and B is a global CRS at the IO rank with B.Rows == A.Cols. B's
// rows are block-scattered to the x-owners once, then each rank
// fetches — as (row, col, value) triplet buffers, point to point —
// exactly the B-rows its local A-nonzeros reference: the plan's
// needed-index sets are the fetch lists, because the columns A touches
// are the rows of B the product reads (Gustavson's identity). Each
// rank multiplies its hosted parts row by row through a dense sparse
// accumulator and ships its C triplets back to the IO rank, which
// merges duplicates (col- and mesh-partitioned parts produce partial
// sums for the same output entry) into the returned CRS.
func DistSpGEMM(m *machine.Machine, pl *CommPlan, b *compress.CRS) (*compress.CRS, OpStats, error) {
	if b == nil {
		return nil, OpStats{}, fmt.Errorf("spops: DistSpGEMM: nil B")
	}
	if b.Rows != pl.Cols {
		return nil, OpStats{}, fmt.Errorf("spops: DistSpGEMM: A is %dx%d but B has %d rows",
			pl.Rows, pl.Cols, b.Rows)
	}
	// A bad B must fail here: a rank that rejects its block mid-run
	// leaves its peers waiting out their receive timeouts.
	if err := b.Validate(); err != nil {
		return nil, OpStats{}, fmt.Errorf("spops: DistSpGEMM: B: %w", err)
	}
	e := newExec(m, pl)
	var c *compress.CRS
	err := e.run(func(pr *machine.Proc) error {
		rows, err := e.exchangeB(pr, b)
		if err != nil {
			return err
		}
		acc := newSPA(b.Cols)
		buf := e.localSpGEMM(pr.Rank, rows, acc)
		if pr.Rank != pl.IO {
			return pr.Send(pl.IO, e.tag(tagGather), [4]int64{int64(len(buf) / 3)}, buf, &e.st[pr.Rank].wire)
		}
		bufs := [][]float64{buf}
		for _, r := range pl.alive {
			if r == pl.IO {
				continue
			}
			msg, err := pr.RecvFrom(r, e.tag(tagGather))
			if err != nil {
				return fmt.Errorf("spops: gather C from %d: %w", r, err)
			}
			bufs = append(bufs, msg.Data)
		}
		c, err = mergeC(bufs, pl.Rows, b.Cols, acc)
		return err
	})
	if err != nil {
		return nil, OpStats{}, err
	}
	stats := e.stats("spgemm", 1)
	// The broadcast-equivalent for SpGEMM ships all of B (as
	// triplets) to every non-root rank, the ops.DistributedSpMM
	// pattern.
	stats.BcastWords = 3 * b.NNZ() * (len(pl.alive) - 1)
	return c, stats, nil
}

// exchangeB block-scatters B's rows from the IO rank to the x-owners
// (the owner of column j of A owns row j of B), then each owner ships
// each consumer the rows on their halo send list. It returns the rows
// this rank holds, indexed by global B row; each is its run of
// triplets inside the buffer that carried it.
func (e *exec) exchangeB(pr *machine.Proc, b *compress.CRS) ([][]float64, error) {
	pl, st, me := e.pl, e.st[pr.Rank], pr.Rank
	rows := make([][]float64, b.Rows)
	var blk []float64
	if me == pl.IO {
		all := make([]float64, 0, 3*b.NNZ())
		for g := 0; g < b.Rows; g++ {
			for q := b.RowPtr[g]; q < b.RowPtr[g+1]; q++ {
				all = append(all, float64(g), float64(b.ColIdx[q]), b.Val[q])
			}
		}
		for _, r := range pl.alive {
			lo, hi := pl.xRange(r)
			if r == me || hi == lo {
				continue
			}
			part := all[3*b.RowPtr[lo] : 3*b.RowPtr[hi] : 3*b.RowPtr[hi]]
			if err := pr.Send(r, e.tag(tagScatter), [4]int64{int64(len(part) / 3)}, part, &st.wire); err != nil {
				return nil, fmt.Errorf("spops: scatter B to %d: %w", r, err)
			}
		}
		blk = all[3*b.RowPtr[st.xlo] : 3*b.RowPtr[st.xhi]]
	} else if st.xhi > st.xlo {
		msg, err := pr.RecvFrom(pl.IO, e.tag(tagScatter))
		if err != nil {
			return nil, fmt.Errorf("spops: rank %d scatter B recv: %w", me, err)
		}
		blk = msg.Data
	}
	if err := decodeRows(blk, rows, st.xlo, st.xhi, b.Cols); err != nil {
		return nil, fmt.Errorf("spops: rank %d scatter B: %w", me, err)
	}
	for _, r := range pl.alive {
		idx := pl.SendIdx[me][r]
		if len(idx) == 0 || r == me {
			continue
		}
		n := 0
		for _, g := range idx {
			n += len(rows[g])
		}
		buf := make([]float64, 0, n)
		for _, g := range idx {
			buf = append(buf, rows[g]...)
		}
		if err := pr.Send(r, e.tag(tagFetch), [4]int64{int64(n / 3)}, buf, &st.wire); err != nil {
			return nil, fmt.Errorf("spops: B fetch %d->%d: %w", me, r, err)
		}
	}
	for _, s := range pl.alive {
		if len(pl.SendIdx[s][me]) == 0 || s == me {
			continue
		}
		msg, err := pr.RecvFrom(s, e.tag(tagFetch))
		if err != nil {
			return nil, fmt.Errorf("spops: B fetch recv %d<-%d: %w", me, s, err)
		}
		lo, hi := pl.xRange(s)
		if err := decodeRows(msg.Data, rows, lo, hi, b.Cols); err != nil {
			return nil, fmt.Errorf("spops: B fetch %d<-%d: %w", me, s, err)
		}
	}
	return rows, nil
}

// checkTriplets checks that buf holds whole triplets with integer rows
// in [lo, hi) and columns in [0, cols). NaN and infinities fail the
// range tests, so the int conversions are defined.
func checkTriplets(buf []float64, lo, hi, cols int) error {
	if len(buf)%3 != 0 {
		return fmt.Errorf("%w: %d words", ErrBadTriplets, len(buf))
	}
	for t := 0; t < len(buf); t += 3 {
		if r := buf[t]; !(r >= float64(lo) && r < float64(hi)) || float64(int(r)) != r {
			return fmt.Errorf("%w: row %g outside [%d,%d)", ErrBadTriplets, r, lo, hi)
		}
		if c := buf[t+1]; !(c >= 0 && c < float64(cols)) || float64(int(c)) != c {
			return fmt.Errorf("%w: column %g outside [0,%d)", ErrBadTriplets, c, cols)
		}
	}
	return nil
}

// decodeRows points rows[g] at row g's run of triplets in buf, without
// copying. Senders emit rows grouped and ascending, so each row is one
// contiguous run.
func decodeRows(buf []float64, rows [][]float64, lo, hi, cols int) error {
	if err := checkTriplets(buf, lo, hi, cols); err != nil {
		return err
	}
	start, prev := 0, lo
	for t := 0; t < len(buf); t += 3 {
		g := int(buf[t])
		if g < prev {
			return fmt.Errorf("%w: row %d after row %d", ErrBadTriplets, g, prev)
		}
		if g != prev {
			start, prev = t, g
		}
		rows[g] = buf[start : t+3 : t+3]
	}
	return nil
}

// spa is a dense sparse accumulator for one row of C at a time: a value
// and a stamp per column plus the columns the current row touched, so
// starting a row costs O(1), not O(cols).
type spa struct {
	val     []float64
	mark    []int
	stamp   int
	touched []int
}

func newSPA(cols int) *spa {
	return &spa{val: make([]float64, cols), mark: make([]int, cols), touched: make([]int, 0, cols)}
}

// reset starts a new row.
func (s *spa) reset() {
	s.stamp++
	s.touched = s.touched[:0]
}

// add accumulates v into column c of the current row.
func (s *spa) add(c int, v float64) {
	if s.mark[c] != s.stamp {
		s.mark[c], s.val[c] = s.stamp, 0
		s.touched = append(s.touched, c)
	}
	s.val[c] += v
}

// localSpGEMM multiplies the parts hosted at rank r against the B rows
// and returns the rank's C triplets, rows and columns ascending. Every
// touched entry is emitted, exact zeros included.
func (e *exec) localSpGEMM(r int, rows [][]float64, acc *spa) []float64 {
	pl := e.pl
	contrib, need := pl.Contrib[r], pl.Need[r]
	hosted := func(fn func(row, col int, v float64)) {
		for k := 0; k < pl.P; k++ {
			if pc := &pl.parts[k]; pl.Host[k] == r {
				forEachNZ(pl.Res, k, func(li, lj int, v float64) { fn(int(pc.rowOut[li]), int(pc.colNeed[lj]), v) })
			}
		}
	}
	// Counting-sort the hosted A nonzeros by output row, stably (parts
	// ascending, storage order), so each C entry sums its products in
	// the order a per-nonzero scatter does. An A nonzero costs 2·|B row|.
	var delta cost.Counter
	ptr := make([]int, len(contrib)+1)
	hosted(func(row, _ int, _ float64) { ptr[row+1]++ })
	for i := range contrib {
		ptr[i+1] += ptr[i]
	}
	aCol := make([]int, ptr[len(contrib)])
	aVal := make([]float64, len(aCol))
	hosted(func(row, col int, v float64) {
		aCol[ptr[row]], aVal[ptr[row]] = need[col], v
		ptr[row]++
		delta.AddOps(2 * len(rows[need[col]]) / 3)
	})
	copy(ptr[1:], ptr)
	ptr[0] = 0
	accumulate := func(i int) {
		acc.reset()
		for q := ptr[i]; q < ptr[i+1]; q++ {
			brow := rows[aCol[q]]
			for t := 0; t < len(brow); t += 3 {
				acc.add(int(brow[t+1]), aVal[q]*brow[t+2])
			}
		}
	}
	// A first pass over the rows counts C's entries, so the wire buffer
	// is allocated once at its final size.
	nnz := 0
	for i := range contrib {
		accumulate(i)
		nnz += len(acc.touched)
	}
	buf := make([]float64, 0, 3*nnz)
	for i, g := range contrib {
		accumulate(i)
		slices.Sort(acc.touched)
		for _, c := range acc.touched {
			buf = append(buf, float64(g), float64(c), acc.val[c])
		}
	}
	e.chargeComp(e.st[r], delta)
	return buf
}

// mergeC builds the global CRS from the gathered C triplet buffers. A
// counting sort groups each row's entries; a row whose columns arrive
// strictly ascending (one contributing rank, as under row partitions)
// is copied as is, and any other row — partial sums from col- or
// mesh-partitioned parts — is summed through acc. Exact zeros are
// dropped, as ops.SpGEMM drops them.
func mergeC(bufs [][]float64, rows, cols int, acc *spa) (*compress.CRS, error) {
	ptr := make([]int, rows+1)
	for _, buf := range bufs {
		if err := checkTriplets(buf, 0, rows, cols); err != nil {
			return nil, fmt.Errorf("spops: gather C: %w", err)
		}
		for t := 0; t < len(buf); t += 3 {
			ptr[int(buf[t])+1]++
		}
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	col, val := make([]int, ptr[rows]), make([]float64, ptr[rows])
	for _, buf := range bufs {
		for t := 0; t < len(buf); t += 3 {
			q := &ptr[int(buf[t])]
			col[*q], val[*q] = int(buf[t+1]), buf[t+2]
			*q++
		}
	}
	copy(ptr[1:], ptr)
	ptr[0] = 0
	// Compact in place: a merged row never outgrows its own entries,
	// and ptr turns into the output RowPtr.
	w, lo := 0, 0
	for i := 0; i < rows; i++ {
		hi, end := ptr[i+1], ptr[i+1]
		for q := lo + 1; q < hi; q++ {
			if col[q] <= col[q-1] {
				acc.reset()
				for k := lo; k < hi; k++ {
					acc.add(col[k], val[k])
				}
				slices.Sort(acc.touched)
				end = lo
				for _, j := range acc.touched {
					col[end], val[end] = j, acc.val[j]
					end++
				}
				break
			}
		}
		for q := lo; q < end; q++ {
			if val[q] != 0 {
				col[w], val[w] = col[q], val[q]
				w++
			}
		}
		ptr[i+1], lo = w, hi
	}
	return &compress.CRS{Rows: rows, Cols: cols, RowPtr: ptr, ColIdx: col[:w:w], Val: val[:w:w]}, nil
}
