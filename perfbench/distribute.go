package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/simnet"
	"repro/internal/sparse"
)

// The distribute workload is the paper's experiment: one closed-loop
// caller distributes a uniform n=1200, s=0.1 array to p=4 ranks,
// rotating over every scheme × partition × method × transport, with
// the uniform network model recording each run for replay.
const (
	distN     = 1200
	distRatio = 0.1
	distProcs = 4
	allocRuns = 5 // runs per combination behind dist.<scheme>.allocs
)

var (
	distSchemes    = []string{"SFC", "CFS", "ED"}
	distPartitions = []string{"row", "col", "mesh"}
	distMethods    = []string{"CRS", "CCS"}
	distTransports = []string{"chan", "tcp"}
)

// distCombo is one configuration of the rotation and the reference its
// outputs are checked against.
type distCombo struct {
	cfg    core.Config
	scheme string
	// Set from the fully verified warm-up run of this combination.
	fingerprint uint64
	vdist       time.Duration
	vcomp       time.Duration
	messages    int64
	wireWords   int64
}

type distribute struct {
	g      *sparse.Dense
	combos []distCombo

	// Ledger of the traced passes.
	wallDist map[string]*Samples // scheme.transport -> ms
	wallComp map[string]*Samples
}

func distCombos() []distCombo {
	var out []distCombo
	for _, sc := range distSchemes {
		for _, pa := range distPartitions {
			for _, me := range distMethods {
				for _, tr := range distTransports {
					out = append(out, distCombo{scheme: sc, cfg: core.Config{
						Scheme: sc, Partition: pa, Method: me, Transport: tr,
						Procs: distProcs, MeshRows: 2, MeshCols: 2, Topology: "uniform",
					}})
				}
			}
		}
	}
	return out
}

// setupDistribute generates the array and warms every combination up
// once. Each warm-up output is verified against direct compression of
// its part and becomes the reference the timed runs are checked
// against; the checks are not part of the set-up time.
func setupDistribute(seed int64, rep *Report) (workload, time.Duration, error) {
	start := time.Now()
	var checking time.Duration
	w := &distribute{
		g:        sparse.Uniform(distN, distN, distRatio, seed),
		combos:   distCombos(),
		wallDist: make(map[string]*Samples),
		wallComp: make(map[string]*Samples),
	}
	for i := range w.combos {
		c := &w.combos[i]
		d, tl, err := distributeOnce(w.g, c.cfg)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		rep.Attempted++
		if err := w.reference(c, d, tl); err != nil {
			rep.Fail(err.Error())
		}
		checking += time.Since(t0)
	}
	return w, time.Since(start) - checking, nil
}

// distributeOnce is one operation: distribute, replay the network
// timeline, release the machine.
func distributeOnce(g *sparse.Dense, cfg core.Config) (*core.Distribution, *simnet.Timeline, error) {
	d, err := core.Distribute(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	tl := d.NetTimeline()
	if err := d.Close(); err != nil {
		return nil, nil, err
	}
	return d, tl, nil
}

// reference fully verifies a warm-up output and records what later
// runs of the same combination must reproduce.
func (w *distribute) reference(c *distCombo, d *core.Distribution, tl *simnet.Timeline) error {
	if err := d.Verify(); err != nil {
		return fmt.Errorf("%s: %w", comboName(c.cfg), err)
	}
	if err := replayParity(d, tl); err != nil {
		return fmt.Errorf("%s: %w", comboName(c.cfg), err)
	}
	bd := d.Result.Breakdown
	c.fingerprint = fingerprint(d.Result)
	c.vdist, c.vcomp = d.DistributionTime(), d.CompressionTime()
	c.messages, c.wireWords = bd.RootDist.Messages, bd.RootDist.Elements
	return nil
}

// replayParity checks that the uniform-topology replay reproduces the
// counter-based virtual times exactly, with every receive matched.
func replayParity(d *core.Distribution, tl *simnet.Timeline) error {
	if tl == nil {
		return fmt.Errorf("no network timeline")
	}
	if tl.Unmatched != 0 {
		return fmt.Errorf("%d unmatched receives in replay", tl.Unmatched)
	}
	pb := tl.PaperBreakdown()
	if pb.Distribution != d.DistributionTime() || pb.Compression != d.CompressionTime() {
		return fmt.Errorf("replay %v/%v != counters %v/%v", pb.Distribution, pb.Compression,
			d.DistributionTime(), d.CompressionTime())
	}
	return nil
}

// check compares a timed run's output with its combination's
// reference without allocating, so it does not pollute the section's
// allocation count.
func (w *distribute) check(c *distCombo, d *core.Distribution, tl *simnet.Timeline) string {
	if fingerprint(d.Result) != c.fingerprint {
		return comboName(c.cfg) + ": local arrays differ from the verified reference"
	}
	if d.DistributionTime() != c.vdist || d.CompressionTime() != c.vcomp {
		return comboName(c.cfg) + ": virtual time differs from the reference run"
	}
	if err := replayParity(d, tl); err != nil {
		return comboName(c.cfg) + ": " + err.Error()
	}
	return ""
}

func comboName(cfg core.Config) string {
	return cfg.Scheme + "/" + cfg.Partition + "/" + cfg.Method + "/" + cfg.Transport
}

func (w *distribute) pass(rec *Recorder, budget time.Duration, minSamples int, rep *Report) *passResult {
	res := &passResult{}
	alloc0 := totalAlloc()
	for k := 0; res.more(budget, minSamples); k++ {
		i := k % len(w.combos)
		c := &w.combos[i]
		run := rec.NewRun()
		if rec != nil {
			w.probeLayers(rec, run, c.cfg)
		}

		t0 := time.Now()
		root := rec.Begin("distribute.op", 0, run)
		dsp := rec.Begin("core.distribute", root, run)
		d, err := core.Distribute(w.g, c.cfg)
		rec.End(dsp)
		var tl *simnet.Timeline
		if err == nil {
			sp := rec.Begin("simnet.replay", root, run)
			tl = d.NetTimeline()
			rec.End(sp)
			err = d.Close()
		}
		lat := time.Since(t0)
		rec.End(root)
		rep.Attempted++
		res.ops++
		res.timed += lat
		res.lat.AddDur(lat)
		if err != nil {
			rep.Fail(comboName(c.cfg) + ": " + err.Error())
			continue
		}
		if rec != nil {
			w.recordPhases(rec, dsp, run, c, d.Result.Breakdown)
		}

		v := rec.Begin("check.verify", 0, run)
		if msg := w.check(c, d, tl); msg != "" {
			rep.Fail(msg)
		}
		rec.End(v)
	}
	res.allocBytes = totalAlloc() - alloc0
	return res
}

// probeLayers times the layers core.Distribute builds internally —
// the partition and the machine with its transport — by calling their
// public constructors on their own, outside the timed operation.
func (w *distribute) probeLayers(rec *Recorder, run int, cfg core.Config) {
	sp := rec.Begin("partition.build", 0, run)
	_, err := core.NewPartition(w.g, cfg.Normalized())
	rec.End(sp)
	if err != nil {
		return
	}
	sp = rec.Begin("machine.new."+cfg.Transport, 0, run)
	defer rec.End(sp)
	var tr machine.Transport
	if cfg.Transport == "tcp" {
		if tr, err = machine.NewTCPTransport(distProcs); err != nil {
			return
		}
	} else {
		tr = machine.NewChanTransport(distProcs)
	}
	m, err := machine.New(distProcs, machine.WithTransport(tr))
	if err != nil {
		tr.Close()
		return
	}
	m.Close()
}

// recordPhases files the run's wall phase split and lays the phases
// out as child spans from the start of the core.distribute span, so
// its self time is the part the phases do not cover: machine and
// partition set-up, goroutine start and the engine's own bookkeeping.
func (w *distribute) recordPhases(rec *Recorder, parent, run int, c *distCombo, bd *dist.Breakdown) {
	key := c.scheme + "." + c.cfg.Transport
	if w.wallDist[key] == nil {
		w.wallDist[key], w.wallComp[key] = &Samples{}, &Samples{}
	}
	w.wallDist[key].AddDur(bd.WallDistribution())
	w.wallComp[key].AddDur(bd.WallCompression())
	start, _ := rec.Bounds(parent)
	mid := start.Add(bd.WallDistribution())
	rec.Add("dist.wall_dist", parent, run, start, mid)
	rec.Add("dist.wall_comp", parent, run, mid, mid.Add(bd.WallCompression()))
}

func (w *distribute) vtimeMS() float64 {
	var s Samples
	for _, c := range w.combos {
		s.AddDur(c.vdist + c.vcomp)
	}
	return s.Median()
}

func (w *distribute) ledger(rec *Recorder, rep *Report) {
	spans := rec.Spans()
	dur := ByName(spans, nil)
	self := ByName(spans, SelfTimes(spans))
	setMedian(rep, "partition.build_ms", dur["partition.build"], "ms")
	for _, tr := range distTransports {
		setMedian(rep, "machine.new_ms."+tr, dur["machine.new."+tr], "ms")
	}
	setMedian(rep, "core.distribute_self_ms", self["core.distribute"], "ms")
	setMedian(rep, "simnet.replay_ms", dur["simnet.replay"], "ms")

	for _, sc := range distSchemes {
		for _, tr := range distTransports {
			key := sc + "." + tr
			setMedian(rep, "dist."+key+".wall_dist_ms", w.wallDist[key], "ms")
			setMedian(rep, "dist."+key+".wall_comp_ms", w.wallComp[key], "ms")
		}
		// Counts and virtual times are a pure function of the array
		// and the combination; the median runs over the scheme's
		// combinations.
		var allocs, msgs, words, vdist, vcomp Samples
		for _, c := range w.combos {
			if c.scheme != sc {
				continue
			}
			allocs.Add(w.allocsPerRun(c.cfg))
			msgs.Add(float64(c.messages))
			words.Add(float64(c.wireWords))
			vdist.AddDur(c.vdist)
			vcomp.AddDur(c.vcomp)
		}
		setMedian(rep, "dist."+sc+".allocs", &allocs, "count")
		setMedian(rep, "dist."+sc+".messages", &msgs, "count")
		setMedian(rep, "dist."+sc+".wire_words", &words, "count")
		setMedian(rep, "dist."+sc+".vdist_ms", &vdist, "ms")
		setMedian(rep, "dist."+sc+".vcomp_ms", &vcomp, "ms")
	}

	// The single-thread baseline: sequential compression of the whole
	// global array.
	for _, method := range distMethods {
		var s Samples
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			if method == "CRS" {
				compress.CompressCRS(w.g, nil)
			} else {
				compress.CompressCCS(w.g, nil)
			}
			s.AddDur(time.Since(t0))
		}
		setMedian(rep, "baseline.compress_ms."+method, &s, "ms")
	}
}

// allocsPerRun counts the heap objects one operation allocates: the
// minimum over a few back-to-back runs, since a garbage collection
// empties the buffer pools and a run that refills them allocates more.
func (w *distribute) allocsPerRun(cfg core.Config) float64 {
	best := uint64(math.MaxUint64)
	for r := 0; r < allocRuns; r++ {
		m0 := mallocs()
		if _, _, err := distributeOnce(w.g, cfg); err != nil {
			return 0
		}
		best = min(best, mallocs()-m0)
	}
	return float64(best)
}

func (w *distribute) close() error { return nil }

// setMedian records a sample set's median with its sample count.
func setMedian(rep *Report, name string, s *Samples, unit string) {
	if s == nil {
		s = &Samples{}
	}
	rep.Set(name, s.Median(), unit, fmt.Sprintf("median, n=%d", s.Len()))
}

// fingerprint hashes a distribution's local compressed arrays (an
// FNV-style multiply-xor over every index and value bit pattern, one
// 64-bit word at a time) without allocating.
func fingerprint(res *dist.Result) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h = (h ^ x) * 1099511628211
		h ^= h >> 32
	}
	ints := func(xs []int) {
		mix(uint64(len(xs)))
		for _, x := range xs {
			mix(uint64(x))
		}
	}
	vals := func(xs []float64) {
		mix(uint64(len(xs)))
		for _, x := range xs {
			mix(math.Float64bits(x))
		}
	}
	for _, a := range res.LocalCRS {
		if a != nil {
			ints(a.RowPtr)
			ints(a.ColIdx)
			vals(a.Val)
		}
	}
	for _, a := range res.LocalCCS {
		if a != nil {
			ints(a.ColPtr)
			ints(a.RowIdx)
			vals(a.Val)
		}
	}
	return h
}
