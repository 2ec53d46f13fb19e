package dist

import (
	"time"

	"repro/internal/compress"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// SFC is the Send Followed Compress scheme (paper §3.1), the intuitive
// baseline used by BRS-style distributions: the root sends each *dense*
// local array — zeros included — and every processor compresses its own
// piece after receiving it.
//
// Cost shape (row partition, Table 1): distribution is p·T_Startup +
// n²·T_Data (the whole array crosses the wire, no packing); compression
// is ⌈n/p⌉·n·(1+3s')·T_Operation, incurred in parallel at the receivers.
type SFC struct{}

// Name implements Scheme.
func (SFC) Name() string { return "SFC" }

// Scheme implements Codec.
func (SFC) Scheme() string { return "SFC" }

// Policy implements Codec: extraction/packing at the root is
// distribution work (so pipeline stall stays on that side too), and
// the receivers' compression is the scheme's entire compression phase.
func (SFC) Policy() PhasePolicy {
	return PhasePolicy{RootEncode: PhaseDistribution, Receive: PhaseCompression}
}

// Overlap implements Codec; SFC has no forced-pipeline ablation.
func (SFC) Overlap(Options) bool { return false }

// EncodePart implements Codec. For the row partition each local array
// is a contiguous block of the global array, sent "without packing
// into buffers" (paper §4.1.1): the payload is a zero-copy view of the
// global's row block, never pooled, and receivers only read it. Column,
// mesh and cyclic parts are strided in memory and must be packed
// element-by-element first — the cost that makes SFC's measured
// column/mesh distribution times much larger than its row ones (paper
// Tables 4-5) and lowers the Remark 5 thresholds.
func (s SFC) EncodePart(run *runState, k int, pp *partPayload) error {
	cols := run.global.Cols()
	if !rowContiguousPart(run.part, k, cols) {
		return s.EncodePartRows(run, k, run.global.Row, pp)
	}
	start := time.Now()
	rowMap := run.part.RowMap(k)
	lo := 0
	if len(rowMap) > 0 {
		lo = rowMap[0] * cols
	}
	hi := lo + len(rowMap)*cols
	pp.meta = [4]int64{int64(len(rowMap)), int64(cols)}
	pp.buf = run.global.Data()[lo:hi:hi]
	pp.wallDist = time.Since(start)
	return nil
}

// EncodePartRows implements canonicalEncoder: pack part k's dense local
// array, read through a row accessor, into a pooled wire buffer — one
// row-segment copy per row when the column map is contiguous. EncodePart
// uses it for the strided parts; the streaming receiver replays every
// part through it. Only a part that is not row-contiguous books the
// packing charge, exactly as on the materializing path.
func (SFC) EncodePartRows(run *runState, k int, row func(gi int) []float64, pp *partPayload) error {
	rowMap, colMap := run.part.RowMap(k), run.part.ColMap(k)
	start := time.Now()
	buf := machine.GetBuf(len(rowMap) * len(colMap))
	c0 := -1
	if partition.Contiguous(colMap) {
		c0 = 0
		if len(colMap) > 0 {
			c0 = colMap[0]
		}
	}
	for _, gi := range rowMap {
		r := row(gi)
		if c0 >= 0 {
			buf = append(buf, r[c0:c0+len(colMap)]...)
			continue
		}
		for _, gj := range colMap {
			buf = append(buf, r[gj])
		}
	}
	_, cols := run.part.Shape()
	if !rowContiguousPart(run.part, k, cols) {
		pp.dist.AddOps(len(buf))
	}
	pp.meta = [4]int64{int64(len(rowMap)), int64(len(colMap))}
	pp.buf = buf
	pp.pooled = true
	pp.wallDist = time.Since(start)
	return nil
}

// DecodePart implements Codec: rebuild the dense local array from the
// payload and compress it (the scheme's compression phase).
func (SFC) DecodePart(run *runState, _ int, data []float64, meta [4]int64, ctr *cost.Counter) (compress.PartArray, error) {
	local, err := sparse.DenseFromSlice(int(meta[0]), int(meta[1]), data)
	if err != nil {
		return nil, err
	}
	return run.format.CompressDense(local, ctr), nil
}

// Distribute implements Scheme over the shared engine.
func (s SFC) Distribute(m *machine.Machine, g *sparse.Dense, part partition.Partition, opts Options) (*Result, error) {
	return Run(m, Plan{Codec: s, Global: g, Partition: part, Options: opts})
}
