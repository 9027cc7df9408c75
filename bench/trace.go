package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one call from the harness into a layer's public function,
// or one HTTP round-trip, timed from outside the program. IDs start at
// 1; Parent 0 means a root span. All spans of one op or job share OpID
// (the job's trace_id on the service workloads).
type span struct {
	ID      int                `json:"id"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Parent  int                `json:"parent"`
	OpID    string             `json:"op_id"`
	SelfNS  int64              `json:"self_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer holds the run's spans in memory until the run ends. A nil
// tracer records nothing, so the untraced run pays one nil check per
// boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	roots map[string]int // op ID → the span opened for that op
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, roots: make(map[string]int)} }

// add records a finished span and returns its ID (0 on a nil tracer).
// A span given no parent hangs under the span opened for its op, if
// there is one: that is how an HTTP round-trip finds its job.
func (t *tracer) add(name, opID string, parent int, start, end time.Time, counts map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if parent == 0 {
		parent = t.roots[opID]
	}
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, OpID: opID, Counts: counts,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open reserves a span ID before its children run, so they can name it
// as their parent; close fills in the end time.
func (t *tracer) open(name, opID string, parent int, start time.Time) int {
	id := t.add(name, opID, parent, start, start, nil)
	if id != 0 && parent == 0 {
		t.mu.Lock()
		t.roots[opID] = id
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) close(id int, end time.Time, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
	t.spans[id-1].Counts = counts
}

// timed runs f, records it as a span and returns how long it took. The
// duration is returned on a nil tracer too: metrics are computed from
// it whether or not the span is kept.
func (t *tracer) timed(name, opID string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, opID, parent, start, end, nil)
	return end.Sub(start)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (their union, so
// overlapping children are not subtracted twice).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// write emits one JSON object per span, self time filled in.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		s.SelfNS = self[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
