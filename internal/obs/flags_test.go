package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestFlagsOnRegistersBundle(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	cfg := FlagsOn(fs)
	if err := fs.Parse([]string{"-trace", "t.ndjson", "-v", "-cpuprofile", "p.out"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace != "t.ndjson" || !cfg.Verbose || cfg.CPUProfile != "p.out" {
		t.Fatalf("parsed config %+v", cfg)
	}
}

func TestInertRuntimeHasNilSink(t *testing.T) {
	// Regression: Start once wrapped the nil *NDJSONSink in a non-nil
	// Sink interface, so emitting through the "inert" runtime crashed.
	rt, err := (&Config{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Sink() != nil {
		t.Fatalf("inert runtime sink %#v, want nil", rt.Sink())
	}
	// Emitting through spans/Close on the inert runtime must be no-ops.
	span := rt.Span("x")
	span.Add("n", 1)
	span.End()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeTraceLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	rt, err := (&Config{Trace: path}).Start()
	if err != nil {
		t.Fatal(err)
	}
	span := rt.Span("job")
	span.Add("items", 3)
	span.End()
	Default().Counter("flags_test.marker").Add(1)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(lines) < 3 {
		t.Fatalf("trace has %d lines, want span_start+span_end+counters", len(lines))
	}
	sawCounters := false
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		if m["type"] == EventCounters && m["name"] == "registry" {
			sawCounters = true
			if _, ok := m["flags_test.marker"]; !ok {
				t.Fatalf("registry snapshot missing marker: %v", m)
			}
		}
	}
	if !sawCounters {
		t.Fatal("Close did not emit the registry counters snapshot")
	}
}

func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				lines = append(lines, data[start:i])
			}
			start = i + 1
		}
	}
	return lines
}
