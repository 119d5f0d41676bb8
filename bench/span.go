package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the recorder was created; Parent is the index of the span that
// caused this one (-1 for a root) and Op identifies the operation all spans
// of one request share. Count carries the work done inside the span (pairs
// scored, candidates returned, rows indexed) so ratios are measured where
// the work happens.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Count  int    `json:"count,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how the untraced epochs run the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex // daemon_mixed records from two client goroutines
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to be passed to end and used as
// the parent of the spans it causes.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id, count int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = int64(time.Since(r.t0))
	r.spans[id].Count = count
}

// layerTotals is what the per-layer metrics are computed from.
type layerTotals struct {
	self  time.Duration // span time minus the part its children cover
	spans int
	count int
}

// selfTimes sums, per span name, each span's duration minus its children's.
// Children of one span never overlap here (the replay is sequential), so the
// covered part is the plain sum of their durations.
func (r *recorder) selfTimes() map[string]layerTotals {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTotals{}
	for i, s := range r.spans {
		t := out[s.Name]
		t.self += time.Duration(s.End - s.Start - child[i])
		t.spans++
		t.count += s.Count
		out[s.Name] = t
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
