package spops_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// denseMatVec is the sequential oracle y = G·x.
func denseMatVec(g *sparse.Dense, x []float64) []float64 {
	y := make([]float64, g.Rows())
	for i := 0; i < g.Rows(); i++ {
		s := 0.0
		for j := 0; j < g.Cols(); j++ {
			s += g.At(i, j) * x[j]
		}
		y[i] = s
	}
	return y
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func vecClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("%s: entry %d = %g, want %g", label, i, got[i], want[i])
		}
	}
}

// distribute runs core.Distribute and builds the plan; the caller
// must Close the distribution.
func distribute(t *testing.T, g *sparse.Dense, cfg core.Config) (*core.Distribution, *spops.CommPlan) {
	t.Helper()
	d, err := core.Distribute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := spops.BuildCommPlan(d.Partition, d.Result)
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	return d, pl
}

// TestSpMVOracleMatrix verifies the halo-exchange SpMV element-wise
// against the dense mat-vec across every scheme x partition x method
// combination on a non-square array.
func TestSpMVOracleMatrix(t *testing.T) {
	g := sparse.Uniform(37, 29, 0.15, 42)
	x := randVec(29, 7)
	want := denseMatVec(g, x)
	for _, scheme := range []string{"SFC", "CFS", "ED"} {
		for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
			for _, method := range []string{"CRS", "CCS", "JDS"} {
				name := fmt.Sprintf("%s/%s/%s", scheme, part, method)
				t.Run(name, func(t *testing.T) {
					d, pl := distribute(t, g, core.Config{
						Scheme: scheme, Partition: part, Method: method, Procs: 4,
					})
					defer d.Close()
					y, st, err := spops.SpMV(d.Machine(), pl, x)
					if err != nil {
						t.Fatal(err)
					}
					vecClose(t, y, want, 1e-12, "SpMV")
					if st.WireWords <= 0 || st.Messages <= 0 {
						t.Fatalf("no traffic accounted: %+v", st)
					}
				})
			}
		}
	}
}

// TestSpMVDegenerate covers empty rows/columns, the zero matrix, and
// more processors than rows.
func TestSpMVDegenerate(t *testing.T) {
	cases := []struct {
		name string
		g    *sparse.Dense
		p    int
	}{
		{"zero", sparse.NewDense(9, 11), 3},
		{"diagonal", sparse.Diagonal(8, 2, 0, 3, 0, 5, 0, 7, 0), 4},
		{"more-procs-than-rows", sparse.Uniform(3, 12, 0.4, 5), 6},
		{"single-proc", sparse.Uniform(10, 10, 0.3, 9), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := randVec(tc.g.Cols(), 13)
			want := denseMatVec(tc.g, x)
			d, pl := distribute(t, tc.g, core.Config{Partition: "row", Procs: tc.p})
			defer d.Close()
			y, _, err := spops.SpMV(d.Machine(), pl, x)
			if err != nil {
				t.Fatal(err)
			}
			vecClose(t, y, want, 1e-12, "SpMV")
		})
	}
}

// TestPlanHaloBeatsBroadcast asserts the acceptance-criteria
// inequality at the plan level: on a banded array at s <= 0.1 the
// halo exchange moves strictly fewer words per sweep than the
// broadcast path.
func TestPlanHaloBeatsBroadcast(t *testing.T) {
	g := sparse.Banded(256, 256, 8, 0.8, 3) // s ≈ 0.05
	if r := g.SparseRatio(); r > 0.1 {
		t.Fatalf("banded test matrix too dense: s=%.3f", r)
	}
	for _, part := range []string{"row", "col", "mesh"} {
		t.Run(part, func(t *testing.T) {
			d, pl := distribute(t, g, core.Config{Partition: part, Procs: 4})
			defer d.Close()
			if pl.Stats.HaloWords >= pl.Stats.BcastWords {
				t.Fatalf("halo %d words >= broadcast %d words", pl.Stats.HaloWords, pl.Stats.BcastWords)
			}
			// The measured one-shot traffic must also beat broadcast +
			// gather: scatter + halo + y-route + gather < n(p-1) + n.
			x := randVec(256, 1)
			_, st, err := spops.SpMV(d.Machine(), pl, x)
			if err != nil {
				t.Fatal(err)
			}
			bcastTotal := pl.Stats.BcastWords + 256
			if st.WireWords >= bcastTotal {
				t.Fatalf("measured %d words >= broadcast-path %d", st.WireWords, bcastTotal)
			}
		})
	}
}

// TestJacobiSolves checks the resident-segment Jacobi against a
// diagonally dominant system across partitions and methods.
func TestJacobiSolves(t *testing.T) {
	n := 48
	g := sparse.Uniform(n, n, 0.08, 21).Clone()
	for i := 0; i < n; i++ {
		// Make the system strictly diagonally dominant.
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += math.Abs(g.At(i, j))
			}
		}
		g.Set(i, i, sum+1)
	}
	b := randVec(n, 99)
	for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
		for _, method := range []string{"CRS", "CCS", "JDS"} {
			t.Run(part+"/"+method, func(t *testing.T) {
				d, pl := distribute(t, g, core.Config{Partition: part, Method: method, Procs: 4})
				defer d.Close()
				x, st, err := spops.Jacobi(d.Machine(), pl, b, nil, 1e-12, 500)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Converged {
					t.Fatalf("did not converge in %d iterations", st.Iterations)
				}
				vecClose(t, denseMatVec(g, x), b, 1e-8, "A·x")
			})
		}
	}
}

// TestPowerIteration recovers the dominant eigenpair of a diagonal
// array, where the answer is exact.
func TestPowerIteration(t *testing.T) {
	g := sparse.Diagonal(12, 1, 2, 3, 9, 4, 5, 1, 2, 3, 4, 5, 6)
	d, pl := distribute(t, g, core.Config{Partition: "row", Procs: 4})
	defer d.Close()
	lambda, vec, st, err := spops.Power(d.Machine(), pl, 1e-12, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("power iteration did not converge in %d iterations", st.Iterations)
	}
	if math.Abs(lambda-9) > 1e-6 {
		t.Fatalf("lambda = %g, want 9", lambda)
	}
	for i, v := range vec {
		want := 0.0
		if i == 3 {
			want = 1
		}
		if math.Abs(math.Abs(v)-want) > 1e-4 {
			t.Fatalf("eigenvector[%d] = %g, want ±%g", i, v, want)
		}
	}
}

// TestDistSpGEMMOracle verifies the row-fetch SpGEMM element-wise
// against the sequential Gustavson kernel, and its charged traffic and
// work against counts recomputed from the plan and B.
func TestDistSpGEMMOracle(t *testing.T) {
	ga := sparse.Uniform(30, 24, 0.15, 11)
	gb := sparse.Uniform(24, 18, 0.2, 12)
	bcrs := compress.CompressCRS(gb, nil)
	want, err := ops.SpGEMM(compress.CompressCRS(ga, nil), bcrs)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"SFC", "CFS", "ED"} {
		for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
			for _, method := range []string{"CRS", "CCS", "JDS"} {
				t.Run(scheme+"/"+part+"/"+method, func(t *testing.T) {
					d, pl := distribute(t, ga, core.Config{
						Scheme: scheme, Partition: part, Method: method, Procs: 4,
					})
					defer d.Close()
					c, st, err := spops.DistSpGEMM(d.Machine(), pl, bcrs)
					if err != nil {
						t.Fatal(err)
					}
					assertCRSEqual(t, c, want)
					assertSpGEMMCharge(t, st, ga, pl, bcrs)
				})
			}
		}
	}
	t.Run("column-out-of-range", func(t *testing.T) {
		d, pl := distribute(t, ga, core.Config{Procs: 4})
		defer d.Close()
		bad := *bcrs
		bad.ColIdx = slices.Clone(bcrs.ColIdx)
		bad.ColIdx[len(bad.ColIdx)-1] = bad.Cols
		if _, _, err := spops.DistSpGEMM(d.Machine(), pl, &bad); err == nil {
			t.Fatal("DistSpGEMM accepted a B column out of range")
		}
	})
}

// TestDegradedOps runs SpMV, Jacobi and SpGEMM on a degraded
// distribution (rank killed, parts re-homed) and checks the oracles
// still hold.
func TestDegradedOps(t *testing.T) {
	n := 32
	g := sparse.Uniform(n, n, 0.12, 31).Clone()
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += math.Abs(g.At(i, j))
			}
		}
		g.Set(i, i, sum+1)
	}
	cfg := core.Config{Partition: "row", Procs: 4, Degrade: true, KillRank: 2,
		Retries: 2, RetryBackoff: 2 * time.Millisecond}
	d, pl := distribute(t, g, cfg)
	defer d.Close()
	if !d.Result.Degraded {
		t.Fatal("expected a degraded distribution")
	}

	x := randVec(n, 17)
	y, _, err := spops.SpMV(d.Machine(), pl, x)
	if err != nil {
		t.Fatal(err)
	}
	vecClose(t, y, denseMatVec(g, x), 1e-12, "degraded SpMV")

	b := randVec(n, 18)
	xs, st, err := spops.Jacobi(d.Machine(), pl, b, nil, 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("degraded Jacobi did not converge")
	}
	vecClose(t, denseMatVec(g, xs), b, 1e-8, "degraded Jacobi A·x")

	gb := sparse.Uniform(n, 10, 0.2, 19)
	bcrs := compress.CompressCRS(gb, nil)
	want, err := ops.SpGEMM(compress.CompressCRS(g, nil), bcrs)
	if err != nil {
		t.Fatal(err)
	}
	c, st, err := spops.DistSpGEMM(d.Machine(), pl, bcrs)
	if err != nil {
		t.Fatal(err)
	}
	assertCRSEqual(t, c, want)
	assertSpGEMMCharge(t, st, g, pl, bcrs)
}

// assertSpGEMMCharge checks DistSpGEMM's OpStats against counts
// recomputed from the plan, A's dense form g and B. Every message is a
// buffer of (row, col, value) triplets: one B block from the IO rank to
// each other x-owner (ceil-div blocks of B's rows over the alive ranks),
// the B rows of each non-empty halo send list, and from each non-IO
// rank one C triplet per distinct (row, col) its hosted nonzeros touch.
// Each hosted A nonzero (i, j) costs 2·|B row j| operations.
func assertSpGEMMCharge(t *testing.T, st spops.OpStats, g *sparse.Dense, pl *spops.CommPlan, b *compress.CRS) {
	t.Helper()
	var alive []int
	for r, ok := range pl.Alive {
		if ok {
			alive = append(alive, r)
		}
	}
	msgs, words, ops := 0, 0, 0
	blk := (pl.Cols + len(alive) - 1) / len(alive)
	for i, r := range alive {
		lo, hi := min(i*blk, pl.Cols), min((i+1)*blk, pl.Cols)
		if r != pl.IO && hi > lo {
			msgs++
			words += 3 * (b.RowPtr[hi] - b.RowPtr[lo])
		}
	}
	for _, s := range alive {
		for _, r := range alive {
			if idx := pl.SendIdx[s][r]; s != r && len(idx) > 0 {
				msgs++
				for _, j := range idx {
					words += 3 * b.RowNNZ(j)
				}
			}
		}
	}
	for _, r := range alive {
		touched := map[[2]int]bool{}
		for k, h := range pl.Host {
			if h != r {
				continue
			}
			for _, i := range pl.Part.RowMap(k) {
				for _, j := range pl.Part.ColMap(k) {
					if g.At(i, j) == 0 {
						continue
					}
					ops += 2 * b.RowNNZ(j)
					for q := b.RowPtr[j]; q < b.RowPtr[j+1]; q++ {
						touched[[2]int{i, b.ColIdx[q]}] = true
					}
				}
			}
		}
		if r != pl.IO {
			msgs++
			words += 3 * len(touched)
		}
	}
	if st.Messages != msgs || st.WireWords != words || st.Ops != ops {
		t.Fatalf("charged %d msgs, %d words, %d ops; want %d, %d, %d",
			st.Messages, st.WireWords, st.Ops, msgs, words, ops)
	}
}

// TestDistSpGEMMAllocs guards the kernel's allocation profile: a call
// allocates per rank and per message, never per nonzero, so a banded
// array with four times the nonzeros costs no more allocations, and
// both stay under a tenth of the 4202 allocs/op BENCH_2026-08-08.json
// records for the map-based kernel on the n=256 array.
func TestDistSpGEMMAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	allocs := map[int]float64{}
	for _, n := range []int{256, 1024} {
		g := sparse.Banded(n, n, 8, 0.8, 3)
		d, pl := distribute(t, g, core.Config{Scheme: "ED", Partition: "row", Procs: 4})
		b := compress.CompressCRS(g, nil)
		allocs[n] = testing.AllocsPerRun(20, func() {
			if _, _, err := spops.DistSpGEMM(d.Machine(), pl, b); err != nil {
				t.Fatal(err)
			}
		})
		d.Close()
	}
	// A few allocations of slack absorb scheduling noise in the machine's
	// message plumbing; per-nonzero growth would add hundreds.
	if allocs[1024] > allocs[256]+4 {
		t.Errorf("n=1024 allocates %.0f times, n=256 %.0f: allocations grow with nnz", allocs[1024], allocs[256])
	}
	for n, a := range allocs {
		if a > 4202/10 {
			t.Errorf("n=%d allocates %.0f times per call, want <= 420", n, a)
		}
	}
}

// TestPlanReuse executes the same plan several times on one machine
// (the server's cache pattern) and checks results stay correct.
func TestPlanReuse(t *testing.T) {
	g := sparse.Uniform(20, 20, 0.2, 41)
	d, pl := distribute(t, g, core.Config{Partition: "row", Procs: 4})
	defer d.Close()
	for it := 0; it < 3; it++ {
		x := randVec(20, int64(100+it))
		y, _, err := spops.SpMV(d.Machine(), pl, x)
		if err != nil {
			t.Fatal(err)
		}
		vecClose(t, y, denseMatVec(g, x), 1e-12, "reused plan SpMV")
	}
}

// TestSimnetRecordsOps checks that op traffic lands in the network
// timeline when a topology is attached.
func TestSimnetRecordsOps(t *testing.T) {
	g := sparse.Uniform(24, 24, 0.15, 51)
	d, pl := distribute(t, g, core.Config{Partition: "row", Procs: 4, Topology: "star"})
	defer d.Close()
	base := d.NetTimeline().Makespan
	x := randVec(24, 5)
	if _, _, err := spops.SpMV(d.Machine(), pl, x); err != nil {
		t.Fatal(err)
	}
	after := d.NetTimeline().Makespan
	if after <= base {
		t.Fatalf("SpMV traffic not recorded: makespan %v -> %v", base, after)
	}
}

// assertCRSEqual compares two CRS matrices element-wise via dense
// reconstruction (structural layouts may differ in explicit zeros).
func assertCRSEqual(t *testing.T, got, want *compress.CRS) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	gd := densify(got)
	wd := densify(want)
	for i := range gd {
		if math.Abs(gd[i]-wd[i]) > 1e-10*(1+math.Abs(wd[i])) {
			t.Fatalf("C[%d/%d] = %g, want %g", i/got.Cols, i%got.Cols, gd[i], wd[i])
		}
	}
}

func densify(c *compress.CRS) []float64 {
	d := make([]float64, c.Rows*c.Cols)
	for i := 0; i < c.Rows; i++ {
		for idx := c.RowPtr[i]; idx < c.RowPtr[i+1]; idx++ {
			d[i*c.Cols+c.ColIdx[idx]] += c.Val[idx]
		}
	}
	return d
}
