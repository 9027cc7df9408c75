package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRendererRateAndETA(t *testing.T) {
	var buf bytes.Buffer
	r := NewRenderer(&buf)
	r.minPeriod = 0
	fake := time.Now()
	r.now = func() time.Time { return fake }

	r.Emit(Event{Type: EventProgress, Name: "faultsim", Fields: map[string]any{
		"done": 0, "total": 20000,
	}})
	fake = fake.Add(2 * time.Second)
	r.Emit(Event{Type: EventProgress, Name: "faultsim", Fields: map[string]any{
		"done": 10000, "total": 20000, "detected": 412,
	}})
	out := buf.String()
	if !strings.Contains(out, "50%") {
		t.Fatalf("missing percentage: %q", out)
	}
	if !strings.Contains(out, "5.0k/s") {
		t.Fatalf("missing rate: %q", out)
	}
	if !strings.Contains(out, "ETA 2s") {
		t.Fatalf("missing ETA: %q", out)
	}
	if !strings.Contains(out, "detected 412") {
		t.Fatalf("missing extras: %q", out)
	}
}

func TestRendererThrottles(t *testing.T) {
	var buf bytes.Buffer
	r := NewRenderer(&buf)
	fake := time.Now()
	r.now = func() time.Time { return fake }
	r.minPeriod = time.Second

	for i := 0; i < 50; i++ {
		fake = fake.Add(10 * time.Millisecond) // 100 Hz event stream
		r.Emit(Event{Type: EventSegment, Name: "sim", Fields: map[string]any{"done": i}})
	}
	// 500 ms of 100 Hz events through a 1 Hz throttle: only the first
	// paint (throttle window starts empty) may appear.
	if got := strings.Count(buf.String(), "\r"); got > 1 {
		t.Fatalf("throttle let %d paints through in 500ms", got)
	}
}

func TestRendererFinalAndSummaryLines(t *testing.T) {
	var buf bytes.Buffer
	r := NewRenderer(&buf)
	r.minPeriod = time.Hour // final events must bypass the throttle
	r.Emit(Event{Type: EventProgress, Name: "sim", Fields: map[string]any{"done": 100, "total": 100}})
	r.Emit(Event{Type: EventSpanEnd, Name: "sim", Fields: map[string]any{"seconds": 1.5, "vectors": int64(9)}})
	r.Emit(Event{Type: EventSummary, Name: "sim", Fields: map[string]any{"coverage": 0.97}})
	out := buf.String()
	if !strings.Contains(out, "100%") {
		t.Fatalf("final progress suppressed: %q", out)
	}
	if !strings.Contains(out, "done in 1.5s") || !strings.Contains(out, "vectors=9") {
		t.Fatalf("span_end line: %q", out)
	}
	if !strings.Contains(out, "coverage=0.97") {
		t.Fatalf("summary line: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("output must end with newline: %q", out)
	}
}
