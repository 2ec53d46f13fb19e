package main

import (
	"math"
	"runtime"
	"time"
)

// nproc is the machine size the workloads are sized for: at most this
// many closed-loop callers and client connections.
const nproc = 2

// workload is one set of inputs driven through the program's public
// API. A workload is built by its setup function, whose wall time
// (without output checks) is the run's setup_s sample.
type workload interface {
	// pass runs the closed loop until budget of timed time has
	// elapsed, extended (up to twice the budget) until minSamples
	// latencies are in. Every output is checked; a wrong or failed
	// operation is recorded in rep. A non-nil rec records spans and
	// the per-layer ledger.
	pass(rec *Recorder, budget time.Duration, minSamples int, rep *Report) *passResult
	// vtimeMS is the median of T_Distribution + T_Compression, the
	// paper's virtual time, over the workload's distributions.
	vtimeMS() float64
	// ledger turns the traced passes into per-layer metrics and adds
	// the single-thread reference baselines.
	ledger(rec *Recorder, rep *Report)
	close() error
}

// setupFunc builds a workload from its seed. The returned duration is
// the set-up wall time excluding output checks.
type setupFunc func(seed int64, rep *Report) (workload, time.Duration, error)

var workloads = map[string]setupFunc{
	"distribute": setupDistribute,
	"compute":    setupCompute,
	"serve":      setupServe,
}

// workloadOrder is the fixed order of the traced ledger.
var workloadOrder = []string{"distribute", "compute", "serve"}

// passResult is what one timed section measured.
type passResult struct {
	ops        int
	timed      time.Duration // time the operations took, checks excluded
	lat        Samples       // per-operation latency, ms
	allocBytes uint64        // TotalAlloc delta over the section
}

func (p *passResult) throughput() float64 {
	if p.timed <= 0 {
		return 0
	}
	return float64(p.ops) / p.timed.Seconds()
}

// more reports whether a single-caller loop should start another
// operation.
func (p *passResult) more(budget time.Duration, minSamples int) bool {
	if p.timed < budget {
		return true
	}
	return p.lat.Len() < minSamples && p.timed < 2*budget
}

// totalAlloc reads the cumulative heap allocation counter.
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// mallocs reads the cumulative heap object allocation counter.
func mallocs() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs
}

// closeEnough compares two floats with a relative tolerance.
func closeEnough(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// vectorsClose reports the first index where got and want differ
// beyond tol, or -1.
func vectorsClose(got, want []float64, tol float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if !closeEnough(got[i], want[i], tol) {
			return i
		}
	}
	return -1
}
