//go:build race

package spops_test

// raceEnabled reports whether the race detector is compiled in; alloc
// guards skip under it because instrumentation inflates the counts.
const raceEnabled = true
