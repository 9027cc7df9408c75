// Package obs is the repository's instrumentation layer: hierarchical
// spans with wall-clock timing and per-span counters, a process-wide
// registry of named counters, an NDJSON event sink for machine-readable
// traces, a throttled human progress renderer, and a shared command-line
// flag bundle (-trace / -v / -cpuprofile) so every cmd/* tool exposes
// the same observability surface.
//
// The package is dependency-free (standard library only) and designed
// so that the disabled path costs nothing measurable: every Span method
// is a no-op on a nil receiver, sinks are checked for nil at emission
// sites, and registry counters are single atomic adds behind cached
// handles. Heavy loops (fault simulation segments, PODEM runs, greedy
// covering passes) therefore instrument unconditionally and let the
// configuration decide whether anything is recorded.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Event types emitted by this repository. The NDJSON schema is one JSON
// object per line with at least the keys "t" (seconds since the sink
// was opened), "type" and "name"; remaining keys are event-specific
// payload fields.
const (
	// EventSpanStart marks a span opening.
	EventSpanStart = "span_start"
	// EventSpanEnd marks a span closing; carries "seconds" plus the
	// span's accumulated counters.
	EventSpanEnd = "span_end"
	// EventProgress is a throttleable progress sample; carries "done"
	// and (when known) "total" so renderers can compute rate and ETA.
	EventProgress = "progress"
	// EventSegment is a fault-simulation segment boundary record.
	EventSegment = "segment"
	// EventPhase is a discrete algorithm step (a greedy pick, a Phase-2
	// column resolution, an ATPG fault verdict).
	EventPhase = "phase"
	// EventCounters is a registry snapshot.
	EventCounters = "counters"
	// EventSummary is a final machine-readable run summary.
	EventSummary = "summary"
)

// Event is one structured telemetry record.
type Event struct {
	// T is the emission time in seconds relative to the receiving
	// sink's epoch. Emitters normally leave it zero and let the sink
	// stamp it, so call sites need no clock plumbing.
	T float64
	// Type is one of the Event* constants (or a consumer-defined type).
	Type string
	// Name is the hierarchical span/event name, "/"-separated.
	Name string
	// Trace is the campaign trace ID this event belongs to, empty for
	// untraced events. NDJSON sinks serialize it as "trace"; WithTrace
	// stamps it on every event passing through a sink.
	Trace string
	// Fields is the event payload. Values must be JSON-encodable.
	Fields map[string]any
}

// Sink consumes events. Implementations must be safe for concurrent
// use; Emit must not retain the Fields map.
type Sink interface {
	Emit(Event)
}

// Emit sends an event to the sink, tolerating a nil sink. This is the
// form instrumented code should use.
func Emit(s Sink, ev Event) {
	if s != nil {
		s.Emit(ev)
	}
}

// MultiSink fans an event out to several sinks.
type MultiSink []Sink

// Emit forwards the event to each non-nil sink in order.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		if s != nil {
			s.Emit(ev)
		}
	}
}

// Combine returns a sink fanning out to all non-nil arguments: nil when
// none remain, the sink itself when exactly one does.
func Combine(sinks ...Sink) Sink {
	var live MultiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// Span is a named region of work. It records wall time between New/Child
// and End, accumulates named counters, and emits span_start/span_end
// events (plus any intermediate events the caller reports through it).
// All methods are no-ops on a nil *Span, so call sites never need a
// guard: disabled instrumentation is a nil receiver check per call.
type Span struct {
	sink  Sink
	name  string
	start time.Time

	mu       sync.Mutex
	counters map[string]int64
	ended    bool
}

// NewSpan opens a root span emitting to sink. A nil sink yields a nil
// span (every method on which is a no-op).
func NewSpan(sink Sink, name string) *Span {
	if sink == nil {
		return nil
	}
	s := &Span{sink: sink, name: name, start: time.Now()}
	sink.Emit(Event{Type: EventSpanStart, Name: name})
	return s
}

// Child opens a sub-span named parent/name.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return NewSpan(s.sink, s.name+"/"+name)
}

// Add accumulates a named counter on the span. The counters are
// attached to the span_end event.
func (s *Span) Add(counter string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[counter] += delta
	s.mu.Unlock()
}

// Event emits an intermediate event under the span's name. The fields
// map is copied by value semantics of emission ordering only — callers
// must not mutate it concurrently with Event.
func (s *Span) Event(typ string, fields map[string]any) {
	if s == nil {
		return
	}
	s.sink.Emit(Event{Type: typ, Name: s.name, Fields: fields})
}

// EventNamed emits an intermediate event under name span/name.
func (s *Span) EventNamed(typ, name string, fields map[string]any) {
	if s == nil {
		return
	}
	s.sink.Emit(Event{Type: typ, Name: s.name + "/" + name, Fields: fields})
}

// End closes the span, emitting span_end with the elapsed seconds and
// the accumulated counters. Ending twice emits once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	fields := map[string]any{"seconds": time.Since(s.start).Seconds()}
	for _, k := range sortedKeys(s.counters) {
		fields[k] = s.counters[k]
	}
	s.mu.Unlock()
	s.sink.Emit(Event{Type: EventSpanEnd, Name: s.name, Fields: fields})
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
