package main

import (
	"strings"
	"testing"

	"repro/internal/client"
)

func TestDeltaAndRatios(t *testing.T) {
	before, err := client.ParseMetrics(strings.NewReader(`
sparsedistd_array_cache_hits_total 10
sparsedistd_array_cache_misses_total 5
sparsedistd_jobs_submitted_total 15
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := client.ParseMetrics(strings.NewReader(`
# TYPE sparsedistd_array_cache_hits_total counter
sparsedistd_array_cache_hits_total 40
sparsedistd_array_cache_misses_total 15
sparsedistd_jobs_submitted_total 55
sparsedistd_ops_total{op="spmv"} 3
`))
	if err != nil {
		t.Fatal(err)
	}
	d := Delta(before, after)
	if d["sparsedistd_array_cache_hits_total"] != 30 || d["sparsedistd_array_cache_misses_total"] != 10 {
		t.Fatalf("delta = %v", d)
	}
	// A labelled series first seen after the start counts from zero.
	if d[`sparsedistd_ops_total{op="spmv"}`] != 3 {
		t.Fatalf("new series delta = %g, want 3", d[`sparsedistd_ops_total{op="spmv"}`])
	}
	if got := HitRatio(d, "sparsedistd_array_cache_hits_total", "sparsedistd_array_cache_misses_total"); got != 0.75 {
		t.Fatalf("hit ratio = %g, want 0.75 (30 of 40), not the cumulative 40/55", got)
	}
	if got := HitRatio(d, "absent_hits", "absent_misses"); got != 0 {
		t.Fatalf("ratio over nothing = %g, want 0", got)
	}
	if got := Ratio(d["sparsedistd_jobs_rejected_total"], d["sparsedistd_jobs_submitted_total"]); got != 0 {
		t.Fatalf("rejected ratio = %g, want 0", got)
	}
}
