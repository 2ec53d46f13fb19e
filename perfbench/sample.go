package main

import (
	"sort"
	"time"
)

// Samples keeps every raw observation of one quantity, in the order it
// was taken, the way a ground-truth harness keeps each repetition of a
// kernel instead of a running mean. Summaries sort a copy, so the raw
// sequence stays available for dumping and re-analysis.
type Samples struct {
	vals []float64
}

// Add records one observation.
func (s *Samples) Add(v float64) { s.vals = append(s.vals, v) }

// AddDur records a duration in milliseconds.
func (s *Samples) AddDur(d time.Duration) { s.Add(ms(d)) }

// Len is the number of observations.
func (s *Samples) Len() int { return len(s.vals) }

// Raw returns the observations in recording order.
func (s *Samples) Raw() []float64 { return s.vals }

// Median returns the middle observation (the mean of the two middle
// ones for an even count); 0 when empty.
func (s *Samples) Median() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	sorted := sortedCopy(s.vals)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Percentile is one nearest-rank percentile with its support.
type Percentile struct {
	Pct    int     // the percentile, 1..100
	Value  float64 // the observation at the nearest rank
	N      int     // observations it was taken from
	Beyond int     // observations strictly above its rank
}

// minBeyond is how many observations must lie beyond a percentile's
// rank before it is reported: with fewer, the value is one of a handful
// of extreme samples and moves with every run.
const minBeyond = 10

// Supported reports whether at least minBeyond observations lie beyond
// the percentile's rank.
func (p Percentile) Supported() bool { return p.Beyond >= minBeyond }

// Pct returns the nearest-rank pct-th percentile: the observation at
// rank ceil(pct·n/100) of the sorted values. Integer arithmetic keeps
// the rank exact (0.99·1000 is not exactly 990 in floating point).
func (s *Samples) Pct(pct int) Percentile {
	n := len(s.vals)
	p := Percentile{Pct: pct, N: n}
	if n == 0 {
		return p
	}
	rank := (pct*n + 99) / 100
	rank = max(1, min(rank, n))
	sorted := sortedCopy(s.vals)
	p.Value = sorted[rank-1]
	p.Beyond = n - rank
	return p
}

func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
