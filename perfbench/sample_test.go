package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func samplesOf(vals ...float64) *Samples {
	s := &Samples{}
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := samplesOf(tc.vals...).Median(); got != tc.want {
			t.Errorf("Median(%v) = %g, want %g", tc.vals, got, tc.want)
		}
	}
}

func TestPctNearestRank(t *testing.T) {
	// 1..1000: p99 sits at rank 990 exactly, leaving 10 beyond it.
	s := &Samples{}
	for i := 1000; i >= 1; i-- {
		s.Add(float64(i))
	}
	p := s.Pct(99)
	if p.Value != 990 || p.Beyond != 10 || p.N != 1000 || !p.Supported() {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with 10 beyond, supported", p)
	}
	if p50 := s.Pct(50); p50.Value != 500 || p50.Beyond != 500 {
		t.Fatalf("p50 of 1..1000 = %+v", p50)
	}
	// Raw samples keep their recording order.
	if raw := s.Raw(); raw[0] != 1000 || raw[999] != 1 {
		t.Fatalf("raw order changed: first %g last %g", raw[0], raw[999])
	}
}

func TestPctUnsupported(t *testing.T) {
	s := &Samples{}
	for i := 1; i <= 999; i++ {
		s.Add(float64(i))
	}
	p := s.Pct(99)
	if p.Beyond != 9 || p.Supported() {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and unsupported", p)
	}
	if p := (&Samples{}).Pct(99); p.N != 0 || p.Supported() {
		t.Fatalf("p99 of nothing = %+v", p)
	}
	if p := samplesOf(5).Pct(100); p.Value != 5 || p.Beyond != 0 {
		t.Fatalf("p100 of one sample = %+v", p)
	}
}

// writeResult writes rep and decodes its JSON result line.
func writeResult(t *testing.T, rep *Report) (string, result) {
	t.Helper()
	var out bytes.Buffer
	if err := rep.Write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return out.String(), res
}

// flaggedUnsupported reports whether the human-readable output prints
// name as UNSUPPORTED.
func flaggedUnsupported(out, name string) bool {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == name && f[1] == "UNSUPPORTED" {
			return true
		}
	}
	return false
}

func TestLatencyFlagsUnsupported(t *testing.T) {
	rep := NewReport()
	rep.Latency("latency", samplesOf(1, 2, 3))
	m, ok := rep.Get("latency_p99_ms")
	if !ok || !m.Unsupported {
		t.Fatalf("p99 of 3 samples not flagged unsupported: %+v", m)
	}
	if m, _ := rep.Get("latency_p50_ms"); m.Value != 2 || m.Unit != "ms" {
		t.Fatalf("p50 = %+v", m)
	}
	out, res := writeResult(t, rep)
	if _, ok := res.Metrics["latency_p99_ms"]; ok {
		t.Fatalf("p99 in the JSON result: %+v", res.Metrics)
	}
	if _, ok := res.Metrics["latency_p50_ms"]; !ok {
		t.Fatalf("p50 missing from the JSON result: %+v", res.Metrics)
	}
	if !flaggedUnsupported(out, "latency_p99_ms") {
		t.Fatalf("p99 line not flagged UNSUPPORTED in place of its value:\n%s", out)
	}
}

func TestLatencyP99PrintedOnly(t *testing.T) {
	s := &Samples{}
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	rep := NewReport()
	rep.Latency("latency", s)
	if m, ok := rep.Get("latency_p99_ms"); !ok || m.Value != 990 || m.Unsupported {
		t.Fatalf("p99 of 1..1000 = %+v, %v", m, ok)
	}
	out, res := writeResult(t, rep)
	if _, ok := res.Metrics["latency_p99_ms"]; ok {
		t.Fatalf("p99 in the JSON result: %+v", res.Metrics)
	}
	if !strings.Contains(out, "latency_p99_ms") || !strings.Contains(out, "990 ms") {
		t.Fatalf("p99 line missing:\n%s", out)
	}
}

func TestSamplesDurations(t *testing.T) {
	s := &Samples{}
	s.AddDur(1500 * time.Microsecond)
	s.AddDur(500 * time.Microsecond)
	if s.Median() != 1 || s.Len() != 2 || s.Raw()[0] != 1.5 {
		t.Fatalf("median %g len %d raw %v", s.Median(), s.Len(), s.Raw())
	}
}
