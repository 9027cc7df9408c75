package obs

import (
	"sync"
	"testing"
)

// recordSink captures events for assertions.
type recordSink struct {
	mu     sync.Mutex
	events []Event
}

func (r *recordSink) Emit(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recordSink) byType(typ string) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, ev := range r.events {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

func TestSpanHierarchyAndCounters(t *testing.T) {
	rec := &recordSink{}
	root := NewSpan(rec, "run")
	child := root.Child("faultsim")
	child.Add("vectors", 100)
	child.Add("vectors", 24)
	child.Event(EventProgress, map[string]any{"done": 100, "total": 124})
	child.End()
	child.End() // idempotent
	root.End()

	starts := rec.byType(EventSpanStart)
	if len(starts) != 2 || starts[0].Name != "run" || starts[1].Name != "run/faultsim" {
		t.Fatalf("span_start events: %+v", starts)
	}
	ends := rec.byType(EventSpanEnd)
	if len(ends) != 2 {
		t.Fatalf("span_end count %d (double End must emit once)", len(ends))
	}
	if ends[0].Name != "run/faultsim" {
		t.Fatalf("child must end first, got %q", ends[0].Name)
	}
	if got := ends[0].Fields["vectors"]; got != int64(124) {
		t.Fatalf("counter on span_end = %v", got)
	}
	if _, ok := ends[0].Fields["seconds"].(float64); !ok {
		t.Fatalf("span_end missing seconds: %+v", ends[0].Fields)
	}
	if len(rec.byType(EventProgress)) != 1 {
		t.Fatal("progress event lost")
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.Add("x", 1)
	s.Event(EventPhase, nil)
	s.EventNamed(EventPhase, "y", nil)
	s.End()
	if s.Child("c") != nil {
		t.Fatal("nil span child must be nil")
	}
	if NewSpan(nil, "x") != nil {
		t.Fatal("nil sink must give nil span")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
				r.Counter("cold").Add(1)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap["hot"] != 8000 || snap["cold"] != 8000 {
		t.Fatalf("snapshot %v", snap)
	}
	if len(snap) != 2 {
		t.Fatalf("names %v", snap)
	}
}

func TestCombine(t *testing.T) {
	if Combine(nil, nil) != nil {
		t.Fatal("all-nil combine must be nil")
	}
	rec := &recordSink{}
	if s := Combine(nil, rec); s != Sink(rec) {
		t.Fatal("single sink must pass through unchanged")
	}
	rec2 := &recordSink{}
	multi := Combine(rec, rec2)
	multi.Emit(Event{Type: EventSummary, Name: "x"})
	if len(rec.events) != 1 || len(rec2.events) != 1 {
		t.Fatal("multi sink did not fan out")
	}
	// Emit helper tolerates nil.
	Emit(nil, Event{})
	Emit(rec, Event{Type: EventPhase})
	if len(rec.events) != 2 {
		t.Fatal("Emit helper")
	}
}
