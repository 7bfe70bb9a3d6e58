package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one workload run
// share a TraceID; Parent is the ID of the span that caused this one (0 for
// the root).
type Span struct {
	TraceID string `json:"trace_id"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the recorder's epoch
	End     int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is the
// tracing-off recorder: every method is a no-op, so call sites need no
// branches and the untraced run pays only a nil check.
type Recorder struct {
	traceID string
	epoch   time.Time

	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewRecorder starts a recorder whose spans all carry traceID.
func NewRecorder(traceID string) *Recorder {
	return &Recorder{traceID: traceID, epoch: time.Now()}
}

// Start opens a span under parent and returns its ID; End closes it.
func (r *Recorder) Start(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.next++
	id := r.next
	r.spans = append(r.spans, Span{TraceID: r.traceID, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// End closes span id.
func (r *Recorder) End(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now // IDs are dense and 1-based
	r.mu.Unlock()
}

// Add records an already-measured interval under parent.
func (r *Recorder) Add(name string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.spans = append(r.spans, Span{TraceID: r.traceID, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	r.mu.Unlock()
	return id
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON to a new file at path; an existing file
// is never overwritten.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.Spans()); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// SelfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its children (clipped to the parent; overlapping
// children count once).
func SelfTimes(spans []Span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// SelfByName sums self time per span name.
func SelfByName(spans []Span) map[string]time.Duration {
	self := SelfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
