package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Run; Parent is the ID of the
// span that caused this one (0 for an operation's root span).
type Span struct {
	ID     int
	Parent int
	Run    int
	Name   string
	Start  time.Duration // offset from the recorder's epoch
	End    time.Duration
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced mode: every method is a no-op, so the timed loops call
// it unconditionally.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	runs  int
}

// NewRecorder starts an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewRun returns a fresh operation ID (0 on a nil recorder).
func (r *Recorder) NewRun() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return r.runs
}

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent, run int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name, Start: now, End: -1})
	return id
}

// End closes the span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose bounds were measured elsewhere — a phase
// the program reports as a duration, or a server-side interval read
// from a job's timestamps.
func (r *Recorder) Add(name string, parent, run int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// Bounds returns the absolute start and end of span id.
func (r *Recorder) Bounds(id int) (time.Time, time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	return r.epoch.Add(s.Start), r.epoch.Add(s.End)
}

// Spans returns a copy of the finished spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval that its children cover.
// Children may overlap one another and may run past the parent (a
// phase reported as a duration is laid out from the parent's start);
// only the covered part inside the parent counts, once.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [lo, hi].
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// ByName groups span durations (or self times, when self is non-nil)
// by span name, in milliseconds.
func ByName(spans []Span, self map[int]time.Duration) map[string]*Samples {
	out := make(map[string]*Samples)
	for _, s := range spans {
		d := s.Dur()
		if self != nil {
			d = self[s.ID]
		}
		if out[s.Name] == nil {
			out[s.Name] = &Samples{}
		}
		out[s.Name].AddDur(d)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes spans as Chrome trace-event JSON. Each operation
// (Run) is its own track; args carry the span and parent IDs and the
// self time.
func WriteChrome(w io.Writer, spans []Span) error {
	self := SelfTimes(spans)
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.Dur()) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(self[s.ID]) / 1e3},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
