package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Metric is one named, unit-carrying result line.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	// Note is printed after the value on the human-readable line
	// (sample counts, support), never in the JSON result.
	Note string
	// PrintOnly metrics are printed on their human-readable line but
	// left out of the JSON result, so no bound is checked against them.
	PrintOnly bool
	// Unsupported marks a percentile with too few samples beyond it;
	// its line carries the flag in place of the value.
	Unsupported bool
}

// Report accumulates a run's metrics and its correctness ledger.
type Report struct {
	metrics   []Metric
	index     map[string]int
	Attempted int
	Failed    int
	failures  []string
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{index: make(map[string]int)} }

// Set records (or overwrites) a metric.
func (r *Report) Set(name string, value float64, unit, note string) {
	m := Metric{Name: name, Value: value, Unit: unit, Note: note}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = m
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Get returns a recorded metric.
func (r *Report) Get(name string) (Metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return Metric{}, false
	}
	return r.metrics[i], true
}

// Fail records one failed or wrong operation; the first few reasons
// are kept for the human-readable output.
func (r *Report) Fail(reason string) {
	r.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, reason)
	}
}

// Latency records a latency distribution as its median and p99, each
// with its sample count. The p99 is printed only: it follows the slow
// spells of a shared machine too closely to carry a bound. A p99 with
// fewer than ten samples beyond its rank is flagged unsupported in
// place of its value.
func (r *Report) Latency(prefix string, s *Samples) {
	r.Set(prefix+"_p50_ms", s.Median(), "ms", fmt.Sprintf("n=%d", s.Len()))
	p := s.Pct(99)
	name := prefix + "_p99_ms"
	if p.Supported() {
		r.Set(name, p.Value, "ms", fmt.Sprintf("n=%d, %d beyond; printed only", p.N, p.Beyond))
	} else {
		r.Set(name, 0, "ms", fmt.Sprintf("n=%d, only %d beyond, need %d", p.N, p.Beyond, minBeyond))
		r.metrics[r.index[name]].Unsupported = true
	}
	r.metrics[r.index[name]].PrintOnly = true
}

// result is the JSON object printed as the last line of the run.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Write prints one human-readable line per metric, sorted by name,
// then the JSON result line.
func (r *Report) Write(w io.Writer) error {
	sorted := append([]Metric(nil), r.metrics...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		line := fmt.Sprintf("%-44s %14.6g %s", m.Name, m.Value, m.Unit)
		if m.Unsupported {
			line = fmt.Sprintf("%-44s %14s %s", m.Name, "UNSUPPORTED", m.Unit)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	res := result{
		Correct:   r.Failed == 0,
		Attempted: max(r.Attempted, 1),
		Failed:    r.Failed,
		Metrics:   make(map[string]jsonMetric, len(r.metrics)),
	}
	for _, m := range r.metrics {
		if m.PrintOnly {
			continue
		}
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
