package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload for a fifth of a second
// (one op each, see env.more) and once more with tracing on, and checks
// what a driver would read. It takes about half a minute, most of it in
// set-up, so -short skips it.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven workloads")
	}
	dir := t.TempDir()
	run := func(w workload, traced bool, defs []metricDef) {
		e, err := runWorkload(w, 1, 0.2, traced, dir)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := report(&out, e, 1); err != nil {
			t.Fatal(err)
		}
		if e.failed > 0 || len(e.mismatch) > 0 || e.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, wrong %v", w.name, e.attempted, e.failed, e.mismatch)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", w.name, err)
		}
		if !last.Correct || len(last.Metrics) != len(defs) {
			t.Errorf("%s: correct %v, %d metrics, want %d", w.name, last.Correct, len(last.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := last.Metrics[d.Name]; !ok || m.Unit != d.Unit || (!traced && m.Value <= 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", w.name, d.Name, m, ok)
			}
		}
	}
	for _, w := range workloads {
		run(w, false, endToEnd)
	}
	service, _ := findWorkload("service_small_jobs")
	run(service, true, perLayer)
	if st, err := os.Stat(filepath.Join(dir, "service_small_jobs.trace.ndjson")); err != nil || st.Size() == 0 {
		t.Errorf("no span file: %v", err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "state-*")); len(leftovers) > 0 {
		t.Errorf("state directories left behind: %v", leftovers)
	}
}
