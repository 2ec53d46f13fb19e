package main

// Server-side ratios come from /metrics counter deltas taken around a
// measured section, so warm-up traffic and earlier sections do not
// dilute them.

// Delta returns after−before for every series in after; a series
// missing from before counts from zero (a labelled counter appears on
// first use).
func Delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// Ratio is num/den, or 0 when nothing was attempted.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// HitRatio is hits/(hits+misses) over a delta.
func HitRatio(d map[string]float64, hits, misses string) float64 {
	return Ratio(d[hits], d[hits]+d[misses])
}
