package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// The compute workload distributes two n=4096 arrays once (ED, row,
// CRS, p=4) and then calls the compute layer in a fixed cycle. Both
// arrays are made symmetric and strictly diagonally dominant so every
// solver converges; the banded one has a halo of a few dozen words and
// the uniform one a halo of nearly every column.
const (
	computeN       = 4096
	computeProcs   = 4
	computeSpMVs   = 4 // broadcast and halo SpMV calls per array per cycle
	computeTol     = 1e-9
	computeMaxIter = 500
)

// Output tolerances: SpMV and SpGEMM sum in a different order than the
// sequential kernels; the solvers must reach a small true residual.
const (
	spmvTol     = 1e-9
	residualTol = 1e-6
)

type computeArray struct {
	name string
	d    *core.Distribution
	a    *compress.CRS // the global array: SpGEMM's B operand and the oracles' input
	x, b []float64

	// Sequential oracles, computed once outside the timed sections.
	refY []float64
	refC *compress.CRS

	// Ledger of the traced passes (counts are deterministic; the last
	// value wins).
	spgemmAlloc                     Samples // MB per call
	spgemmWords, spmvWords          int
	jacobiIters, cgIters, haloWords int
}

type compute struct {
	arrays []*computeArray
}

// computeInputs are the two sparsity patterns, generated from the seed.
var computeInputs = []struct {
	name string
	gen  func(seed int64) *sparse.Dense
}{
	{"banded", func(seed int64) *sparse.Dense { return sparse.Banded(computeN, computeN, 8, 0.8, seed) }},
	{"uniform", func(seed int64) *sparse.Dense {
		return sparse.UniformExact(computeN, computeN, 6.0/computeN, seed+1)
	}},
}

// setupCompute generates, distributes and plans both arrays, then runs
// one warm-up cycle so lazy state is built before timing.
func setupCompute(seed int64, rep *Report) (workload, time.Duration, error) {
	start := time.Now()
	w := &compute{}
	for _, in := range computeInputs {
		g := in.gen(seed)
		symmetricDominant(g)
		d, err := core.Distribute(g, core.Config{Scheme: "ED", Partition: "row", Method: "CRS", Procs: computeProcs})
		if err != nil {
			return nil, 0, fmt.Errorf("compute %s: %w", in.name, err)
		}
		if _, err := d.CommPlan(); err != nil {
			return nil, 0, fmt.Errorf("compute %s: %w", in.name, err)
		}
		rng := rand.New(rand.NewSource(seed))
		ar := &computeArray{
			name: in.name, d: d,
			a: compress.CompressCRS(g, nil),
			x: randVector(rng, computeN),
			b: randVector(rng, computeN),
		}
		w.arrays = append(w.arrays, ar)
	}
	for _, ar := range w.arrays {
		if err := w.warm(ar); err != nil {
			return nil, 0, err
		}
	}
	elapsed := time.Since(start)

	for _, ar := range w.arrays {
		y, err := ops.SpMV(ar.a, ar.x)
		if err != nil {
			return nil, 0, err
		}
		c, err := ops.SpGEMM(ar.a, ar.a)
		if err != nil {
			return nil, 0, err
		}
		ar.refY, ar.refC = y, c
	}
	return w, elapsed, nil
}

// warm runs one unchecked cycle of every call on ar.
func (w *compute) warm(ar *computeArray) error {
	if _, err := ar.d.SpMV(ar.x); err != nil {
		return err
	}
	if _, _, err := ar.d.HaloSpMV(ar.x); err != nil {
		return err
	}
	if _, _, err := ar.d.Jacobi(ar.b, computeTol, computeMaxIter); err != nil {
		return err
	}
	if _, err := ar.d.CG(ar.b, computeTol, computeMaxIter); err != nil {
		return err
	}
	_, _, err := ar.d.SpGEMM(ar.a)
	return err
}

// symmetricDominant turns g into A+Aᵀ with the diagonal replaced by
// 1.25·Σ|off-diagonal| + 1 per row: symmetric positive definite and
// strictly diagonally dominant, so Jacobi and CG both converge.
func symmetricDominant(g *sparse.Dense) {
	n := g.Rows()
	data := g.Data()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := data[i*n+j] + data[j*n+i]
			data[i*n+j], data[j*n+i] = v, v
		}
	}
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		sum := 0.0
		for j, v := range row {
			if j != i {
				sum += math.Abs(v)
			}
		}
		row[i] = 1.25*sum + 1
	}
}

func randVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// call is one timed compute call: run it, then check its output.
type call struct {
	layer string // span and ledger name, e.g. "spops.spmv"
	run   func(ar *computeArray) (check func() string, err error)
}

// computeCycle is the fixed call sequence made on each array per cycle.
var computeCycle = func() []call {
	var out []call
	for r := 0; r < computeSpMVs; r++ {
		out = append(out, call{"ops.spmv_bcast", callBcastSpMV})
	}
	for r := 0; r < computeSpMVs; r++ {
		out = append(out, call{"spops.spmv", callHaloSpMV})
	}
	return append(out,
		call{"spops.jacobi", callJacobi},
		call{"ops.cg", callCG},
		call{"spops.spgemm", callSpGEMM})
}()

func callBcastSpMV(ar *computeArray) (func() string, error) {
	y, err := ar.d.SpMV(ar.x)
	return func() string { return ar.checkY("broadcast SpMV", y) }, err
}

func callHaloSpMV(ar *computeArray) (func() string, error) {
	y, st, err := ar.d.HaloSpMV(ar.x)
	ar.spmvWords, ar.haloWords = st.WireWords, st.HaloWords
	return func() string { return ar.checkY("halo SpMV", y) }, err
}

func callJacobi(ar *computeArray) (func() string, error) {
	x, st, err := ar.d.Jacobi(ar.b, computeTol, computeMaxIter)
	ar.jacobiIters = st.Iterations
	return func() string {
		if !st.Converged {
			return ar.name + ": Jacobi did not converge"
		}
		return ar.checkSolution("Jacobi", x)
	}, err
}

func callCG(ar *computeArray) (func() string, error) {
	r, err := ar.d.CG(ar.b, computeTol, computeMaxIter)
	if err != nil {
		return nil, err
	}
	ar.cgIters = r.Iterations
	return func() string {
		if !r.Converged {
			return ar.name + ": CG did not converge"
		}
		return ar.checkSolution("CG", r.X)
	}, nil
}

func callSpGEMM(ar *computeArray) (func() string, error) {
	c, st, err := ar.d.SpGEMM(ar.a)
	ar.spgemmWords = st.WireWords
	return func() string { return ar.checkC(c) }, err
}

func (ar *computeArray) checkY(what string, y []float64) string {
	if i := vectorsClose(y, ar.refY, spmvTol); i >= 0 {
		return fmt.Sprintf("%s: %s differs from sequential SpMV at row %d", ar.name, what, i)
	}
	return ""
}

// checkSolution checks ‖A·x − b‖ ≤ residualTol·‖b‖ with a sequential
// product that allocates nothing.
func (ar *computeArray) checkSolution(what string, x []float64) string {
	if len(x) != computeN {
		return fmt.Sprintf("%s: %s returned %d values", ar.name, what, len(x))
	}
	a := ar.a
	var res, norm float64
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.ColIdx[k]]
		}
		r := s - ar.b[i]
		res += r * r
		norm += ar.b[i] * ar.b[i]
	}
	if math.Sqrt(res) > residualTol*math.Sqrt(norm) {
		return fmt.Sprintf("%s: %s residual %.3g exceeds %.0e·‖b‖", ar.name, what, math.Sqrt(res), residualTol)
	}
	return ""
}

// checkC compares a distributed SpGEMM product with the sequential one:
// identical structure, values within tolerance.
func (ar *computeArray) checkC(c *compress.CRS) string {
	ref := ar.refC
	if c == nil || c.Rows != ref.Rows || c.Cols != ref.Cols || c.NNZ() != ref.NNZ() {
		return ar.name + ": SpGEMM shape or nnz differs from sequential SpGEMM"
	}
	for i, p := range ref.RowPtr {
		if c.RowPtr[i] != p {
			return fmt.Sprintf("%s: SpGEMM row %d pointer differs", ar.name, i)
		}
	}
	for k, j := range ref.ColIdx {
		if c.ColIdx[k] != j || !closeEnough(c.Val[k], ref.Val[k], spmvTol) {
			return fmt.Sprintf("%s: SpGEMM entry %d differs", ar.name, k)
		}
	}
	return ""
}

func (w *compute) pass(rec *Recorder, budget time.Duration, minSamples int, rep *Report) *passResult {
	res := &passResult{}
	alloc0 := totalAlloc()
	for res.more(budget, minSamples) {
		for _, ar := range w.arrays {
			for _, cl := range computeCycle {
				run := rec.NewRun()
				var a0 uint64
				if rec != nil && cl.layer == "spops.spgemm" {
					a0 = totalAlloc()
				}
				t0 := time.Now()
				sp := rec.Begin(cl.layer+"."+ar.name, 0, run)
				check, err := cl.run(ar)
				lat := time.Since(t0)
				rec.End(sp)
				if a0 != 0 {
					ar.spgemmAlloc.Add(float64(totalAlloc()-a0) / 1e6)
				}
				rep.Attempted++
				res.ops++
				res.timed += lat
				res.lat.AddDur(lat)
				if err != nil {
					rep.Fail(ar.name + " " + cl.layer + ": " + err.Error())
					continue
				}
				v := rec.Begin("check.verify", 0, run)
				if msg := check(); msg != "" {
					rep.Fail(msg)
				}
				rec.End(v)
			}
		}
	}
	res.allocBytes = totalAlloc() - alloc0
	return res
}

func (w *compute) vtimeMS() float64 {
	var s Samples
	for _, ar := range w.arrays {
		s.AddDur(ar.d.DistributionTime() + ar.d.CompressionTime())
	}
	return s.Median()
}

func (w *compute) ledger(rec *Recorder, rep *Report) {
	dur := ByName(rec.Spans(), nil)
	for _, ar := range w.arrays {
		n := ar.name
		setMedian(rep, "spops.spgemm_ms."+n, dur["spops.spgemm."+n], "ms")
		rep.Set("spops.spgemm_wire_words."+n, float64(ar.spgemmWords), "count", "")
		setMedian(rep, "spops.spgemm_alloc_mb."+n, &ar.spgemmAlloc, "MB")
		setMedian(rep, "spops.spmv_ms."+n, dur["spops.spmv."+n], "ms")
		rep.Set("spops.spmv_wire_words."+n, float64(ar.spmvWords), "count", "")
		rep.Set("spops.halo_words."+n, float64(ar.haloWords), "count", "")
		setMedian(rep, "spops.jacobi_ms."+n, dur["spops.jacobi."+n], "ms")
		rep.Set("spops.jacobi_iters."+n, float64(ar.jacobiIters), "count", "")
		setMedian(rep, "ops.spmv_bcast_ms."+n, dur["ops.spmv_bcast."+n], "ms")
		setMedian(rep, "ops.cg_ms."+n, dur["ops.cg."+n], "ms")
		rep.Set("ops.cg_iters."+n, float64(ar.cgIters), "count", "")

		// The plan is cached by the distribution after set-up, so
		// its build time is sampled by rebuilding it directly.
		var plan Samples
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			if _, err := spops.BuildCommPlan(ar.d.Partition, ar.d.Result); err != nil {
				rep.Fail(n + ": BuildCommPlan: " + err.Error())
			}
			plan.AddDur(time.Since(t0))
		}
		setMedian(rep, "spops.plan_ms."+n, &plan, "ms")

		// The single-thread baselines: sequential kernels on the
		// global array.
		var spmv, spgemm Samples
		for r := 0; r < 20; r++ {
			t0 := time.Now()
			ops.SpMV(ar.a, ar.x)
			spmv.AddDur(time.Since(t0))
		}
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			ops.SpGEMM(ar.a, ar.a)
			spgemm.AddDur(time.Since(t0))
		}
		setMedian(rep, "baseline.spmv_ms."+n, &spmv, "ms")
		setMedian(rep, "baseline.spgemm_ms."+n, &spgemm, "ms")
	}
}

func (w *compute) close() error {
	var first error
	for _, ar := range w.arrays {
		if err := ar.d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
