package tracemerge

import (
	"math"
	"strings"
	"testing"
)

const (
	coordTrace = `{"t":0,"type":"trace_open","name":"sbstd-1","epoch_unix":1000.0,"pid":1}
{"t":0.1,"type":"span_start","name":"engine.dist","trace":"aaaa"}
{"t":0.2,"type":"phase","name":"lease","trace":"aaaa","event":"granted"}
{"t":0.3,"type":"span_start","name":"other.job","trace":"bbbb"}
{"t":0.4,"type":"span_end","name":"other.job","trace":"bbbb","seconds":0.1}
{"t":3.0,"type":"span_end","name":"engine.dist","trace":"aaaa","seconds":2.9}
`
	workerATrace = `{"t":0,"type":"trace_open","name":"worker-a","epoch_unix":1000.5,"pid":2}
{"t":0.1,"type":"span_start","name":"engine.sim","trace":"aaaa"}
{"t":1.0,"type":"span_end","name":"engine.sim","trace":"aaaa","seconds":0.9}
{"t":1.1,"type":"span_start","name":"engine.sim","trace":"aaaa"}
{"t":2.0,"type":"span_end","name":"engine.sim","trace":"aaaa","seconds":0.9}
`
	// worker-b dies mid-span: span_start with no matching end.
	workerBTrace = `{"t":0,"type":"trace_open","name":"worker-b","epoch_unix":1001.0,"pid":3}
{"t":0.1,"type":"span_start","name":"engine.sim","trace":"aaaa"}
{"t":0.6,"type":"phase","name":"worker/worker-b","trace":"aaaa","event":"unit_start"}
`
)

func mergeAll(t *testing.T, traceID string) *Timeline {
	t.Helper()
	tl, err := merge([]namedReader{
		{name: "coord.ndjson", r: strings.NewReader(coordTrace)},
		{name: "wa.ndjson", r: strings.NewReader(workerATrace)},
		{name: "wb.ndjson", r: strings.NewReader(workerBTrace)},
	}, traceID)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestMergeSelectsDominantTrace(t *testing.T) {
	tl := mergeAll(t, "")
	if tl.Trace != "aaaa" {
		t.Fatalf("selected trace %q, want aaaa (dominant)", tl.Trace)
	}
}

func TestMergeAlignsAndPairsSpans(t *testing.T) {
	tl := mergeAll(t, "aaaa")
	if len(tl.Sources) != 3 {
		t.Fatalf("sources %v, want all three processes", tl.Sources)
	}
	// 1 coordinator span + 2 worker-a spans + 1 open worker-b span.
	if len(tl.Spans) != 4 {
		t.Fatalf("got %d spans %+v, want 4", len(tl.Spans), tl.Spans)
	}
	// Absolute alignment: coordinator epoch 1000.0, span at t=0.1..3.0.
	first := tl.Spans[0]
	if first.Source != "sbstd-1" || math.Abs(first.Start-1000.1) > 1e-9 || math.Abs(first.End-1003.0) > 1e-9 {
		t.Fatalf("coordinator span misaligned: %+v", first)
	}
	// The bbbb span must be filtered out.
	for _, s := range tl.Spans {
		if s.Name == "other.job" {
			t.Fatalf("foreign-trace span leaked: %+v", s)
		}
	}
	var open *Span
	for i := range tl.Spans {
		if tl.Spans[i].Open {
			open = &tl.Spans[i]
		}
	}
	if open == nil || open.Source != "worker-b" {
		t.Fatalf("want worker-b's unterminated span marked open, got %+v", tl.Spans)
	}
	if math.Abs(open.End-1001.6) > 1e-9 { // last event time in worker-b's file
		t.Fatalf("open span end %f, want the source's last event time 1001.6", open.End)
	}
}

func TestUtilizationUnionsIntervals(t *testing.T) {
	tl := mergeAll(t, "aaaa")
	util := tl.Utilization()
	wall := tl.Wall() // 1000.1 .. 1003.0 = 2.9s
	if math.Abs(wall-2.9) > 1e-9 {
		t.Fatalf("wall %f, want 2.9", wall)
	}
	// worker-a busy 0.9+0.9 = 1.8s of 2.9.
	if got, want := util["worker-a"], 1.8/2.9; math.Abs(got-want) > 1e-9 {
		t.Fatalf("worker-a utilization %f, want %f", got, want)
	}
	// Coordinator span covers the whole wall.
	if got := util["sbstd-1"]; math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("coordinator utilization %f, want 1.0", got)
	}
}

func TestCriticalPath(t *testing.T) {
	tl := mergeAll(t, "aaaa")
	path := tl.CriticalPath()
	if len(path) != 1 || path[0].Name != "engine.dist" {
		// The coordinator span strictly contains every other span, so the
		// greedy backward walk terminates on it alone.
		t.Fatalf("critical path %+v, want just the enclosing engine.dist span", path)
	}
	if got := path[0].Seconds(); math.Abs(got-2.9) > 1e-9 {
		t.Fatalf("critical path span %fs, want 2.9", got)
	}
}

func TestRecoverSpanFromEndEvent(t *testing.T) {
	// span_end with no start in the file: the "seconds" field rebuilds it.
	trace := `{"t":0,"type":"trace_open","name":"p","epoch_unix":100.0}
{"t":5.0,"type":"span_end","name":"orphan","trace":"x","seconds":2.0}
`
	tl, err := merge([]namedReader{{name: "p.ndjson", r: strings.NewReader(trace)}}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Spans) != 1 {
		t.Fatalf("spans %+v", tl.Spans)
	}
	s := tl.Spans[0]
	if math.Abs(s.Start-103.0) > 1e-9 || math.Abs(s.End-105.0) > 1e-9 {
		t.Fatalf("recovered span [%f %f], want [103 105]", s.Start, s.End)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := merge([]namedReader{{name: "a", r: strings.NewReader("")}}, ""); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := merge([]namedReader{{name: "a", r: strings.NewReader(coordTrace)}}, "zzzz"); err == nil {
		t.Fatal("unmatched trace ID must error")
	}
	if _, err := merge([]namedReader{{name: "a", r: strings.NewReader("not json\n")}}, "x"); err == nil {
		t.Fatal("malformed NDJSON must error")
	}
}

func TestRenderSmoke(t *testing.T) {
	tl := mergeAll(t, "aaaa")
	var sb strings.Builder
	tl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"trace aaaa", "worker-a", "worker-b", "critical path", "(open)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
