package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sparse"
)

// The serve workload runs the daemon in process behind a loopback HTTP
// listener. nproc closed-loop callers each submit a job, wait for its
// result and take the next; jobs come from a deterministic sequence
// over schemes, partitions, methods, ops, a hot set of arrays and
// occasional fresh (cache-missing) and streamed ones.
const (
	serveN        = 400
	serveRatio    = 0.1
	serveProcs    = 4
	serveHotSeeds = 8
	serveWarmJobs = 200
	servePoll     = time.Millisecond
	serveJobLimit = time.Minute
	// serveLedgerJobs is the fixed prefix of a section's job sequence
	// over which virtual times and word counts are summarised, so they
	// repeat exactly for a seed however many jobs the section ran.
	serveLedgerJobs = 1000
)

var (
	serveSchemes    = []string{"SFC", "CFS", "ED"}
	servePartitions = []string{"row", "col", "mesh"}
	serveMethods    = []string{"CRS", "CCS"}
)

// jobRecord is everything kept about one served job: the raw samples
// and the fields its deferred check needs.
type jobRecord struct {
	k      int64
	spec   server.JobSpec
	lat    time.Duration
	err    error
	status server.JobStatus
	root   int // span IDs, traced sections only
	run    int
}

type serve struct {
	seed    int64
	srv     *server.Server
	hs      *http.Server
	served  chan error
	tr      *http.Transport
	cl      *client.Client
	next    atomic.Int64 // next job index
	passes  int
	nnzWant map[[2]int64]int

	lastRecs []jobRecord        // the last section's jobs, in sequence order
	delta    map[string]float64 // /metrics deltas over the traced section
}

// job returns the k-th job of the seed's sequence: a pure function of
// (seed, k), whatever caller draws it.
func (w *serve) job(k int64) server.JobSpec {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + k))
	spec := server.JobSpec{
		N: serveN, Ratio: serveRatio, Procs: serveProcs,
		Scheme:    serveSchemes[k%3],
		Partition: servePartitions[(k/3)%3],
		Method:    serveMethods[(k/9)%2],
	}
	if rng.Float64() < 0.9 {
		spec.Seed = w.seed*100 + 1 + int64(rng.Intn(serveHotSeeds))
	} else {
		spec.Seed = w.seed*100 + 1 + serveHotSeeds + k // fresh: never repeats
	}
	switch u := rng.Float64(); {
	case u < 0.25:
		spec.Op = "spmv"
	case u < 0.5:
		spec.Op = "jacobi"
	case rng.Float64() < 0.1:
		spec.Stream = true // ~5% of all jobs, only plain ones
	}
	return spec
}

// setupServe starts the server and its listener, connects a client
// capped at nproc connections and warms the caches and machine pool
// with a prefix of jobs outside the measured sequence.
func setupServe(seed int64, rep *Report) (workload, time.Duration, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	w := &serve{
		seed:    seed,
		srv:     server.New(server.Config{Workers: nproc}),
		served:  make(chan error, 1),
		tr:      &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		nnzWant: make(map[[2]int64]int),
	}
	w.hs = &http.Server{Handler: w.srv}
	go func() { w.served <- w.hs.Serve(ln) }()
	w.cl = client.New("http://" + ln.Addr().String())
	w.cl.SetHTTPClient(&http.Client{Transport: w.tr, Timeout: serveJobLimit})

	// Warm-up jobs come from a range of indices the sections never
	// reach, so a section's fresh seeds stay fresh.
	w.next.Store(1 << 40)
	warm := w.section(nil, time.Duration(1<<62), serveWarmJobs)
	elapsed := time.Since(start)
	for _, r := range warm {
		rep.Attempted++
		if msg := w.check(r); msg != "" {
			rep.Fail("warm-up " + msg)
		}
	}
	return w, elapsed, nil
}

// section runs nproc closed-loop callers until budget has elapsed or,
// when limit > 0, until limit jobs were drawn; it returns every job's
// record in sequence order.
func (w *serve) section(rec *Recorder, budget time.Duration, limit int64) []jobRecord {
	var (
		mu  sync.Mutex
		out []jobRecord
		wg  sync.WaitGroup
	)
	first := w.next.Load()
	deadline := time.Now().Add(budget)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := w.next.Add(1) - 1
				if limit > 0 && k-first >= limit {
					return
				}
				r := w.do(rec, k)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// do runs one job: submit, wait for its terminal state.
func (w *serve) do(rec *Recorder, k int64) jobRecord {
	r := jobRecord{k: k, spec: w.job(k), run: rec.NewRun()}
	ctx, cancel := context.WithTimeout(context.Background(), serveJobLimit)
	defer cancel()
	t0 := time.Now()
	r.root = rec.Begin("serve.job", 0, r.run)
	sp := rec.Begin("client.submit", r.root, r.run)
	id, err := w.cl.SubmitRetry(ctx, r.spec)
	rec.End(sp)
	if err == nil {
		sp = rec.Begin("client.wait", r.root, r.run)
		r.status, err = w.cl.Wait(ctx, id, servePoll)
		rec.End(sp)
	}
	r.lat = time.Since(t0)
	rec.End(r.root)
	r.err = err
	return r
}

// check verifies one job's result against the benchmark's own
// regeneration of its input array.
func (w *serve) check(r jobRecord) string {
	name := fmt.Sprintf("job %d (%s)", r.k, r.spec.RouteKey())
	if r.err != nil {
		return name + ": " + r.err.Error()
	}
	st := r.status
	if st.State != server.StateDone || st.Result == nil {
		return fmt.Sprintf("%s: state %s: %s", name, st.State, st.Error)
	}
	res := st.Result
	if res.Rows != serveN || res.Cols != serveN {
		return fmt.Sprintf("%s: shape %dx%d, want %dx%d", name, res.Rows, res.Cols, serveN, serveN)
	}
	if want := w.wantNNZ(r.spec); res.NNZ != want {
		return fmt.Sprintf("%s: nnz %d, want %d", name, res.NNZ, want)
	}
	if res.Streamed != r.spec.Stream || res.Op != r.spec.Op {
		return name + ": result does not echo the job's stream/op mode"
	}
	switch r.spec.Op {
	case "spmv":
		if res.OpWireWords <= 0 {
			return name + ": spmv moved no words"
		}
	case "jacobi":
		if !res.OpConverged {
			return name + ": jacobi did not converge"
		}
	}
	return ""
}

// wantNNZ regenerates a job's input array (as the daemon documents it:
// UniformExact, made diagonally dominant for jacobi) and counts its
// nonzeros.
func (w *serve) wantNNZ(spec server.JobSpec) int {
	dominant := int64(0)
	if spec.Op == "jacobi" {
		dominant = 1
	}
	key := [2]int64{spec.Seed, dominant}
	if n, ok := w.nnzWant[key]; ok {
		return n
	}
	g := sparse.UniformExact(spec.N, spec.N, spec.Ratio, spec.Seed)
	n := g.NNZ()
	if dominant == 1 {
		// Every diagonal entry becomes 1.25·Σ|row| + 1 > 0.
		for i := 0; i < spec.N; i++ {
			if g.At(i, i) == 0 {
				n++
			}
		}
	}
	w.nnzWant[key] = n
	return n
}

func (w *serve) pass(rec *Recorder, budget time.Duration, minSamples int, rep *Report) *passResult {
	var before map[string]float64
	if rec != nil {
		var err error
		if before, err = w.cl.Metrics(context.Background()); err != nil {
			rep.Fail("scraping /metrics: " + err.Error())
		}
	}
	// Each section starts its own stretch of the sequence, so its
	// first jobs (and the summaries over them) are the same on every
	// run, and fresh seeds never repeat across sections.
	w.next.Store(int64(w.passes) << 32)
	w.passes++
	alloc0 := totalAlloc()
	t0 := time.Now()
	recs := w.section(rec, budget, 0)
	if len(recs) < minSamples {
		recs = append(recs, w.section(rec, budget, int64(minSamples-len(recs)))...)
	}
	res := &passResult{timed: time.Since(t0), allocBytes: totalAlloc() - alloc0}
	if rec != nil {
		after, err := w.cl.Metrics(context.Background())
		if err != nil {
			rep.Fail("scraping /metrics: " + err.Error())
		}
		w.delta = Delta(before, after)
	}
	for _, r := range recs {
		res.ops++
		rep.Attempted++
		res.lat.AddDur(r.lat)
		if rec != nil && r.err == nil && r.status.StartedAt != nil && r.status.FinishedAt != nil {
			rec.Add("server.queue", r.root, r.run, r.status.SubmittedAt, *r.status.StartedAt)
			rec.Add("server.run", r.root, r.run, *r.status.StartedAt, *r.status.FinishedAt)
		}
		v := rec.Begin("check.verify", 0, r.run)
		if msg := w.check(r); msg != "" {
			rep.Fail(msg)
		}
		rec.End(v)
	}
	if res.ops == 0 {
		rep.Fail("serve: no job completed")
	}
	w.lastRecs = recs
	return res
}

// vtimeMS is the median virtual time over the fixed prefix of the
// last section's job sequence.
func (w *serve) vtimeMS() float64 {
	var s Samples
	for _, r := range prefix(w.lastRecs) {
		if r.status.Result != nil {
			s.AddDur(phaseSum(r.status.Result, true))
		}
	}
	return s.Median()
}

func prefix(recs []jobRecord) []jobRecord {
	if len(recs) > serveLedgerJobs {
		return recs[:serveLedgerJobs]
	}
	return recs
}

// phaseSum adds a job's T_Distribution and T_Compression, virtual or
// wall.
func phaseSum(res *server.JobResult, virtual bool) time.Duration {
	var t time.Duration
	for _, p := range res.Phases {
		if virtual {
			t += p.Virtual
		} else {
			t += p.Wall
		}
	}
	return t
}

// jobClass names the server-side run path a job took.
func jobClass(r jobRecord) string {
	switch {
	case r.spec.Stream:
		return "stream"
	case r.spec.Op != "":
		return "op"
	case r.status.Result.ArrayCacheHit:
		return "hit"
	default:
		return "miss"
	}
}

// ledger summarises the traced section, which is the last one run.
func (w *serve) ledger(rec *Recorder, rep *Report) {
	dur := ByName(rec.Spans(), nil)
	setMedian(rep, "client.submit_ms", dur["client.submit"], "ms")
	setMedian(rep, "client.wait_ms", dur["client.wait"], "ms")

	var overhead, queue, wall, vtime, words Samples
	run := map[string]*Samples{"hit": {}, "miss": {}, "op": {}, "stream": {}}
	for _, r := range w.lastRecs {
		st := r.status
		if r.err != nil || st.Result == nil || st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		overhead.AddDur(r.lat - st.FinishedAt.Sub(st.SubmittedAt))
		queue.AddDur(st.StartedAt.Sub(st.SubmittedAt))
		run[jobClass(r)].AddDur(st.FinishedAt.Sub(*st.StartedAt))
		wall.AddDur(phaseSum(st.Result, false))
	}
	for _, r := range prefix(w.lastRecs) {
		if res := r.status.Result; res != nil {
			vtime.AddDur(phaseSum(res, true))
			if res.Op != "" {
				words.Add(float64(res.OpWireWords))
			}
		}
	}
	setMedian(rep, "server.overhead_ms", &overhead, "ms")
	setMedian(rep, "server.queue_wait_ms", &queue, "ms")
	for _, c := range []string{"hit", "miss", "op", "stream"} {
		setMedian(rep, "server.run_ms."+c, run[c], "ms")
	}
	setMedian(rep, "dist.job_wall_ms", &wall, "ms")
	setMedian(rep, "dist.job_vtime_ms", &vtime, "ms")
	setMedian(rep, "spops.job_wire_words", &words, "count")

	d := w.delta
	ratio := func(name string, v float64) {
		rep.Set("server."+name+"_ratio", v, "ratio", "from /metrics deltas")
	}
	ratio("array_cache_hit", HitRatio(d, "sparsedistd_array_cache_hits_total", "sparsedistd_array_cache_misses_total"))
	ratio("plan_cache_hit", HitRatio(d, "sparsedistd_plan_cache_hits_total", "sparsedistd_plan_cache_misses_total"))
	ratio("ops_plan_cache_hit", HitRatio(d, "sparsedistd_ops_plan_cache_hits_total", "sparsedistd_ops_plan_cache_misses_total"))
	ratio("machine_reuse", HitRatio(d, "sparsedistd_machines_reused_total", "sparsedistd_machines_created_total"))
	ratio("rejected", Ratio(d["sparsedistd_jobs_rejected_total"],
		d["sparsedistd_jobs_submitted_total"]+d["sparsedistd_jobs_rejected_total"]))
}

// close drains the server, stops the listener and waits for it.
func (w *serve) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := w.srv.Drain(ctx); err == nil {
		err = derr
	}
	w.tr.CloseIdleConnections()
	return err
}
