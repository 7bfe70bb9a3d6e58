package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) overlapping, and c
	// [90,120) running past its end; a has one child [15,25).
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 25},
	}
	want := map[int64]time.Duration{
		1: 100 - 50 - 10, // [10,60) covered once, [90,100) clipped
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, got[id], w)
		}
	}
	byName := SelfByName(append(spans, Span{ID: 6, Name: "leaf", Start: 200, End: 205}))
	if byName["leaf"] != 15 {
		t.Errorf("leaf self time by name = %d, want 15", byName["leaf"])
	}
}

func TestRecorderSpans(t *testing.T) {
	rec := NewRecorder("run-1")
	root := rec.Start("root", 0)
	child := rec.Start("child", root)
	rec.End(child)
	now := time.Now()
	rec.Add("measured", root, now, now.Add(time.Millisecond))
	rec.End(root)
	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.TraceID != "run-1" || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	if spans[1].Parent != root || spans[2].Parent != root {
		t.Errorf("parents %d, %d, want %d", spans[1].Parent, spans[2].Parent, root)
	}
	if d := time.Duration(spans[2].End - spans[2].Start); d != time.Millisecond {
		t.Errorf("measured span lasts %v", d)
	}

	var off *Recorder // tracing off: every call is a no-op
	off.End(off.Start("x", 0))
	if off.Spans() != nil {
		t.Error("nil recorder kept spans")
	}
}
