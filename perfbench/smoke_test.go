package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchSpec is the part of ../BENCHMARK.json the smoke runs check
// against: every declared metric must appear, with its unit.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSmoke runs the benchmark in process and returns its output and
// its decoded last line.
func runSmoke(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "--out-dir", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("perfbench %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result not correct: %+v", res)
	}
	return out.String(), res
}

// assertMetrics checks that the result holds exactly the declared
// metrics, each with its unit.
func assertMetrics(t *testing.T, res result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds per workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, res := runSmoke(t, "--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", "0")
			assertMetrics(t, res, spec.EndToEnd)
			if !strings.Contains(out, "latency_p99_ms") {
				t.Errorf("latency_p99_ms not printed:\n%s", out)
			}
			for _, m := range []string{"throughput_per_s", "latency_p50_ms", "vtime_ms", "setup_s", "peak_rss_mb"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %g, want > 0", m, res.Metrics[m].Value)
				}
			}
		})
	}
}

func TestSmokeTracedLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced ledger runs every workload")
	}
	spec := loadSpec(t)
	_, res := runSmoke(t, "--workload", "serve", "--seed", "3", "--seconds", "1", "--trace", "1")
	assertMetrics(t, res, spec.PerLayer)
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--seconds", "0"},
		{"--workload", "serve", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("perfbench %v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
