// Command perfbench is the repository's layered end-to-end benchmark.
// It drives three workloads through the public APIs of core, spops/ops
// and server/client, checks every output, and prints one line per
// metric followed by a JSON result line.
//
//	perfbench --workload distribute|compute|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of the named
// workload, measured with tracing off. With --trace 1 it runs the
// traced ledger of every workload, in the fixed order distribute,
// compute, serve, whichever is named: an untraced and a traced section
// each, spans around every call into a layer, the per-layer metrics
// derived from them, the tracing overhead, and the spans written out
// as Chrome trace-event JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	outDir   string
}

const (
	// setupRuns is how many set-ups an end-to-end run makes; setup_s
	// is their median.
	setupRuns = 5
	// minSamples is how many latencies the timed section extends to
	// (up to twice --seconds), so its p99 has ten samples beyond it.
	minSamples = 1000
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "distribute, compute or serve")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&seconds, "seconds", 20, "timed seconds of the measured section")
	fs.IntVar(&trace, "trace", 0, "1: run the traced per-layer ledger instead of the end-to-end measurement")
	fs.StringVar(&o.outDir, "out-dir", ".bench_build", "directory for raw samples and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want distribute, compute or serve)\n", o.workload)
		return 2
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	o.budget = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	rep := NewReport()
	var err error
	if o.trace {
		err = runLedger(o, rep, stdout)
	} else {
		err = runEndToEnd(o, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.Write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// runEndToEnd measures one workload with tracing off: several set-ups
// (setup_s is their median), then one timed closed-loop section.
func runEndToEnd(o options, rep *Report) error {
	var setups Samples
	var w workload
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return err
			}
			w = nil
			runtime.GC() // each set-up starts from the same heap
		}
		nw, d, err := workloads[o.workload](o.seed, rep)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		w = nw
		setups.Add(d.Seconds())
	}
	runtime.GC()
	p := w.pass(nil, o.budget, minSamples, rep)
	vtime := w.vtimeMS()
	if err := w.close(); err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	rep.Set("setup_s", setups.Median(), "s", fmt.Sprintf("median of %d set-ups", setups.Len()))
	rep.Set("throughput_per_s", p.throughput(), "1/s",
		fmt.Sprintf("%d ops in %.3f s of timed time", p.ops, p.timed.Seconds()))
	rep.Latency("latency", &p.lat)
	rep.Set("alloc_mb_per_op", float64(p.allocBytes)/1e6/float64(max(p.ops, 1)), "MB", "TotalAlloc delta / ops")
	rep.Set("peak_rss_mb", rss, "MB", "VmHWM")
	rep.Set("vtime_ms", vtime, "ms", "median T_Distribution + T_Compression")
	attempted := max(rep.Attempted, 1)
	rep.Set("success_ratio", float64(attempted-rep.Failed)/float64(attempted), "ratio",
		fmt.Sprintf("failed_ratio %g: %d failed of %d attempted", float64(rep.Failed)/float64(attempted), rep.Failed, attempted))
	return writeSamples(o, &setups, p)
}

// runLedger runs the traced ledger of every workload in workloadOrder.
// Each gets one set-up, an untraced and a traced section of a
// quarter of the budget; the throughput difference between the two is
// the tracing overhead.
func runLedger(o options, rep *Report, stdout io.Writer) error {
	rec := NewRecorder()
	budget := max(o.budget/4, time.Second)
	for _, name := range workloadOrder {
		w, _, err := workloads[name](o.seed, rep)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		runtime.GC()
		plain := w.pass(nil, budget, 0, rep)
		runtime.GC()
		traced := w.pass(rec, budget, 0, rep)
		rep.Set("trace.overhead_pct."+name, 100*(plain.throughput()/traced.throughput()-1), "%",
			fmt.Sprintf("untraced %.4g/s vs traced %.4g/s", plain.throughput(), traced.throughput()))
		w.ledger(rec, rep)
		if err := w.close(); err != nil {
			return err
		}
		runtime.GC()
	}
	spans := rec.Spans()
	setMedian(rep, "check.verify_ms", ByName(spans, nil)["check.verify"], "ms")

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-seed%d.json", o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteChrome(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chrome trace: %s (%d spans)\n", path, len(spans))
	return nil
}

// writeSamples keeps every raw sample of the run next to the build, so
// a run can be re-analysed without re-running it.
func writeSamples(o options, setups *Samples, p *passResult) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed,
		"setup_s": setups.Raw(), "latency_ms": p.lat.Raw(),
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, fmt.Sprintf("samples-%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
