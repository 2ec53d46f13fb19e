package dist

import (
	"math"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/sparse"
)

// TestSFCRowPartsLeaveGlobalUntouched pins the safety of SFC's zero-copy
// row parts: the wire payload of a row-contiguous part is a view of the
// caller's global array, so no transport, fault layer or recovery path
// may write through it. A row-partitioned SFC run goes over the plain
// channel transport, over a reliable fault transport that corrupts
// payloads in flight (with and without the reliability layer), and
// degraded around a killed rank; after each the global must be
// bit-identical to its state before the run, and every recovered result
// must verify.
func TestSFCRowPartsLeaveGlobalUntouched(t *testing.T) {
	const n, p = 24, 4
	g := sparse.Uniform(n, n, 0.3, 11)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]uint64, len(g.Data()))
	for i, v := range g.Data() {
		before[i] = math.Float64bits(v)
	}
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"chan", func() (*Result, error) {
			return SFC{}.Distribute(newMachine(t, p), g, part, Options{})
		}},
		{"corrupt-raw", func() (*Result, error) {
			// No reliability layer: the flipped bit reaches a receiver
			// (the result is wrong), but it must land in a copy.
			m, ft := faultMachine(t, p, 5*time.Second)
			ft.CorruptNext(3)
			_, err := SFC{}.Distribute(m, g, part, Options{})
			return nil, err
		}},
		{"corrupt", func() (*Result, error) {
			m, ft, _, _ := faultyMachine(t, p, "chan")
			ft.CorruptNext(3)
			res, err := SFC{}.Distribute(m, g, part, Options{})
			if _, corrupted := ft.Stats(); err == nil && corrupted == 0 {
				t.Error("no payload was corrupted in flight")
			}
			return res, err
		}},
		{"degraded", func() (*Result, error) {
			m, ft, _, _ := faultyMachine(t, p, "chan")
			ft.KillRank(2)
			return SFC{}.Distribute(m, g, part, Options{Degrade: true})
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			res, err := r.run()
			for i, v := range g.Data() {
				if math.Float64bits(v) != before[i] {
					t.Fatalf("global word %d changed from %x to %x", i, before[i], math.Float64bits(v))
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				return
			}
			if err := Verify(g, part, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}
