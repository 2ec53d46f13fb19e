package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Run: 1, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span(1, 0, "op", 0, 10*ms),
		// Two overlapping children cover [1, 5]: 4 ms, counted once.
		span(2, 1, "a", 1*ms, 4*ms),
		span(3, 1, "b", 2*ms, 5*ms),
		// A child running past its parent counts only inside it.
		span(4, 1, "c", 8*ms, 12*ms),
		// A grandchild is its child's business, not the op's.
		span(5, 2, "d", 1*ms, 2*ms),
		span(6, 0, "lone", 20*ms, 23*ms),
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 4 * ms, 2: 2 * ms, 3: 3 * ms, 4: 4 * ms, 5: 1 * ms, 6: 3 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	by := ByName(spans, self)
	if got := by["op"].Median(); got != 4 {
		t.Errorf("ByName self op = %g ms, want 4", got)
	}
	if got := ByName(spans, nil)["op"].Median(); got != 10 {
		t.Errorf("ByName duration op = %g ms, want 10", got)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", 0, r.NewRun())
	r.End(id)
	r.Add("y", id, 0, time.Now(), time.Now())
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder recorded something: id %d", id)
	}
}

func TestRecorderAndChrome(t *testing.T) {
	r := NewRecorder()
	run := r.NewRun()
	root := r.Begin("op", 0, run)
	child := r.Begin("child", root, run)
	r.End(child)
	open := r.Begin("unfinished", root, run)
	_ = open
	r.End(root)
	start, end := r.Bounds(root)
	r.Add("phase", root, run, start, end)

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d finished spans, want 3 (the unfinished one is dropped)", len(spans))
	}
	for _, s := range spans {
		if s.Run != run || (s.Name != "op" && s.Parent != root) {
			t.Errorf("span %+v lost its run or parent", s)
		}
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Tid != run {
		t.Fatalf("chrome events = %+v", doc.TraceEvents)
	}
	if _, ok := doc.TraceEvents[1].Args["parent"]; !ok {
		t.Fatalf("chrome event args lack the parent: %+v", doc.TraceEvents[1].Args)
	}
}
