package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func resultWith(op, work float64) *result {
	return &result{Workload: "w", Correct: true, Attempted: 1, Metrics: map[string]metric{
		"setup_s": {1, "s"}, "op_p50_ms": {op, "ms"}, "work_per_s": {work, "1/s"},
	}}
}

func TestCompareBounds(t *testing.T) {
	base := resultWith(100, 1000) // every bound is a quarter
	for _, c := range []struct {
		name string
		b    *result
		ok   bool
	}{
		{"equal", resultWith(100, 1000), true},
		{"latency at the bound", resultWith(125, 1000), true},
		{"latency past the bound", resultWith(125.5, 1000), false},
		{"throughput past the bound", resultWith(100, 745), false},
		{"much better is fine", resultWith(50, 3000), true},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, base, c.b); got != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
	}
	wrong := resultWith(100, 1000)
	wrong.Correct, wrong.Failed = false, 1
	if compareResults(&bytes.Buffer{}, base, wrong) {
		t.Error("a run with failed ops compared as ok")
	}
	traced := resultWith(100, 1000)
	traced.Traced = true
	if compareResults(&bytes.Buffer{}, base, traced) {
		t.Error("a traced run compared as ok")
	}
}

func TestWorseByFollowsDirection(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worseBy(lower, 100, 120); got != 0.2 {
		t.Errorf("lower-better 100→120 worse by %g", got)
	}
	if got := worseBy(higher, 100, 80); got != 0.2 {
		t.Errorf("higher-better 100→80 worse by %g", got)
	}
	if got := worseBy(higher, 100, 120); got >= 0 {
		t.Errorf("higher-better 100→120 counted as worse by %g", got)
	}
}

// BENCHMARK.json at the root of the repository repeats the workload and
// metric tables for the driver; this keeps it equal to what the harness
// prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness has %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", b.PerLayer, perLayer)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}
