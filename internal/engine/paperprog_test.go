package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/online"
	"repro/internal/selftest"
)

// TestServedPathsRunPaperProgram: every served path that takes the
// selftest stimulus — a fault_sim cell, a leased unit through
// simulateUnit on a fault range, and a default online_burst — runs the
// committed paper program, expanded at the spec's iterations and seeds.
func TestServedPathsRunPaperProgram(t *testing.T) {
	d, err := designs.Build("dsp")
	if err != nil {
		t.Fatal(err)
	}
	expand := func(iters int, seed1, seed2 int64) fault.Vectors {
		return selftest.Expand(selftest.PaperProgram(), selftest.ExpandOptions{
			Iterations: iters, Seed1: uint64(seed1), Seed2: uint64(seed2)})
	}

	// The default stimulus: no iterations or seeds given.
	got, err := resolveVectors(d, VectorSource{Kind: api.VecSelfTest})
	if err != nil {
		t.Fatal(err)
	}
	if want := expand(1000, 0, 0); !slices.Equal(got, want) {
		t.Fatalf("default selftest stimulus: %d vectors differ from the paper program's %d", got.Len(), want.Len())
	}

	src := VectorSource{Kind: api.VecSelfTest, Iterations: 3, Seed: 11, Seed2: 5}
	want := expand(3, 11, 5)
	spec := JobSpec{Kind: JobFaultSim, Vectors: src}

	// A leased unit: a slice of the fault list through simulateUnit.
	lo, hi := 100, 400
	unit, err := simulateUnit(context.Background(), ExecConfig{}, d, spec, lo, hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fault.Simulate(d.Netlist, want, fault.SimOptions{Faults: d.Faults[lo:hi]})
	if err != nil {
		t.Fatal(err)
	}
	if unit.Cycles != want.Len() || !slices.Equal(unit.DetectedAt, ref.DetectedAt) {
		t.Fatalf("unit [%d,%d): %d cycles, %d detected; the paper program gives %d and %d",
			lo, hi, unit.Cycles, unit.Detected(), want.Len(), ref.Detected())
	}

	// A fault_sim cell on the whole list, through the executor.
	res, err := NewExecutor(ExecConfig{})(context.Background(), spec, func(Progress) {})
	if err != nil {
		t.Fatal(err)
	}
	full, err := fault.Simulate(d.Netlist, want, fault.SimOptions{Faults: d.Faults})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != want.Len() || res.Detected != full.Detected() || res.Faults != len(d.Faults) {
		t.Fatalf("fault_sim cell: %d cycles, %d/%d detected; the paper program gives %d cycles, %d detected",
			res.Cycles, res.Detected, res.Faults, want.Len(), full.Detected())
	}

	// A default online_burst schedules the paper program.
	burst, err := NewExecutor(ExecConfig{})(context.Background(), JobSpec{Kind: JobOnlineBurst}, func(Progress) {})
	if err != nil {
		t.Fatal(err)
	}
	set, err := online.CharacterizeIntervals(selftest.PaperProgram(), online.IntervalConfig{
		Config:    online.Config{Iterations: defOnlineIterations, MISRWidth: defOnlineMISRWidth},
		Intervals: defOnlineIntervals,
	})
	if err != nil {
		t.Fatal(err)
	}
	ivs := set.Intervals()
	if burst.Online == nil || len(burst.Online.Schedule) != len(ivs) {
		t.Fatalf("online_burst result %+v, want %d intervals", burst.Online, len(ivs))
	}
	for i, iv := range ivs {
		got := burst.Online.Schedule[i]
		if got.Cycles != iv.Cycles || got.Golden != fmt.Sprintf("%06x", iv.Golden) {
			t.Fatalf("online_burst interval %d: %+v, the paper program gives %d cycles, golden %06x",
				i, got, iv.Cycles, iv.Golden)
		}
	}
}

// TestRecoveredMetricsSizingRunsPaperProgram: a journal written before
// the selftest stimulus lost its c_trials/o_good_runs fields still
// recovers — replay decodes with plain json.Unmarshal, which drops
// unknown fields — and its job runs on the paper program.
func TestRecoveredMetricsSizingRunsPaperProgram(t *testing.T) {
	spec := JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: api.VecSelfTest, Iterations: 2, Seed: 3}}
	path := filepath.Join(t.TempDir(), "campaigns.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Journal: j, Exec: instantExec})
	if _, err := q.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the log in the older writer's form: the spec's stimulus
	// carries the metrics-engine sizing that picked a generated program.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := decodeJournal(data)
	var old []byte
	for _, rec := range recs {
		payload, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		payload = bytes.ReplaceAll(payload, []byte(`"kind":"selftest"`),
			[]byte(`"kind":"selftest","c_trials":8000,"o_good_runs":6`))
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		old = append(append(old, hdr[:]...), payload...)
	}
	if !bytes.Contains(old, []byte(`"c_trials":8000,"o_good_runs":6`)) {
		t.Fatal("the rewritten log holds no c_trials field")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	q2 := NewQueue(QueueOptions{Journal: j2, Workers: 1, Exec: NewExecutor(ExecConfig{})})
	if err := q2.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	q2.Start()
	defer q2.Drain(context.Background())
	job := waitState(t, q2, "job-0001", JobCompleted)
	if v := job.Spec.Vectors; v.Kind != api.VecSelfTest || v.Iterations != 2 || v.Seed != 3 {
		t.Fatalf("recovered stimulus %+v, want %+v", job.Spec.Vectors, spec.Vectors)
	}
	d, err := designs.Build("dsp")
	if err != nil {
		t.Fatal(err)
	}
	vecs := selftest.Expand(selftest.PaperProgram(), selftest.ExpandOptions{Iterations: 2, Seed1: 3})
	want, err := fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: d.Faults})
	if err != nil {
		t.Fatal(err)
	}
	if job.Result == nil || job.Result.Detected != want.Detected() || job.Result.Cycles != vecs.Len() {
		t.Fatalf("recovered job result %+v, want the paper program's %d cycles, %d detected",
			job.Result, vecs.Len(), want.Detected())
	}
}

// TestSubmitRejectsMetricsSizing: the one wire break of the committed
// program — a submission that still sizes the metrics engine is an
// unknown field, so the server answers 400.
func TestSubmitRejectsMetricsSizing(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{Workers: 1})
	for _, body := range []string{
		`{"kind":"fault_sim","vectors":{"kind":"selftest","c_trials":8000}}`,
		`{"kind":"fault_sim","vectors":{"kind":"selftest","o_good_runs":6}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		decode(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "unknown field") {
			t.Fatalf("%s: status %d, error %+v; want 400 bad_request naming the unknown field", body, resp.StatusCode, e)
		}
	}
}
