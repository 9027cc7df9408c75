package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/fault"
)

type executorGoldenCase struct {
	name string
	spec JobSpec
}

// executorGoldenSpecs is one small spec per kind the two executors
// both run as fault-simulation cells. Small enough for -short and
// -race; the experiment uses program stimulus so its baseline length
// is something the coordinator never expanded itself.
func executorGoldenSpecs() []executorGoldenCase {
	bist := func(count int, seed int64) VectorSource {
		return VectorSource{Kind: api.VecBIST, Count: count, Seed: seed}
	}
	return []executorGoldenCase{
		{"fault_sim", JobSpec{Kind: JobFaultSim, Vectors: bist(40, 1)}},
		{"n_detect", JobSpec{Kind: JobNDetect, NDetect: 3, Vectors: bist(40, 1)}},
		{"experiment", JobSpec{Kind: JobExperiment, Vectors: VectorSource{
			Kind: api.VecProgram, Program: "LD RND,R0\nMPYA R0,R1,R3\nOUT R3\n", Iterations: 8, Seed: 5}}},
		{"campaign_matrix", JobSpec{Kind: JobCampaignMatrix, Matrix: &api.MatrixSpec{
			Designs: []string{"dsp", "bench/s27"},
			Schemes: []VectorSource{bist(24, 3), bist(16, 11)}}}},
		{"ga_search", JobSpec{Kind: JobGaSearch, Ga: &api.GaSpec{
			Population: 4, Generations: 2, Seed: 7, Slots: 6, Iterations: 6}}},
	}
}

// executorGoldenEntry is what the golden file pins per kind.
type executorGoldenEntry struct {
	Local json.RawMessage `json:"local"`
	Pool  json.RawMessage `json:"pool"`
	// MergedIDs are the IDs DistOptions.OnMerged saw on the pool run, in
	// firing order — except ga_search, whose individuals of one
	// generation merge concurrently: those are sorted, which the
	// zero-padded g<gen>+i<idx> suffix makes generation-major.
	MergedIDs []string `json:"merged_ids"`
}

// TestExecutorGolden pins, for every kind that is "run N fault-sim
// cells and roll them up", the JobResult from NewExecutor and from
// NewDistExecutor over an in-process fleet, and the IDs the lease pool
// was asked to run. testdata/executor_golden.json was written by the
// two-executor code this test outlived; -update rewrites it.
func TestExecutorGolden(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: 10 * time.Second})
	defer p.Close()
	stop := startTestWorkers(t, p, 2)
	defer stop()

	var mu sync.Mutex
	var mergedIDs []string
	local := NewExecutor(ExecConfig{Workers: 2})
	pool := NewDistExecutor(ExecConfig{Workers: 2}, p, DistOptions{
		Units: 3,
		OnMerged: func(id string, _ *fault.Result) {
			mu.Lock()
			mergedIDs = append(mergedIDs, id)
			mu.Unlock()
		},
	})
	marshal := func(exec Executor, id string, spec JobSpec) (*JobResult, json.RawMessage) {
		t.Helper()
		jr, err := exec(withJobID(context.Background(), id), spec, func(Progress) {})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		jr.Seconds = 0
		raw, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		return jr, raw
	}

	got := map[string]executorGoldenEntry{}
	for _, tc := range executorGoldenSpecs() {
		id := "gold-" + tc.name
		mergedIDs = nil
		lr, lraw := marshal(local, id, tc.spec)
		if len(mergedIDs) != 0 {
			t.Fatalf("%s: the local executor fired OnMerged for %v", tc.name, mergedIDs)
		}
		_, praw := marshal(pool, id, tc.spec)
		if !bytes.Equal(lraw, praw) {
			t.Errorf("%s: local and pool results differ:\nlocal %s\npool  %s", tc.name, lraw, praw)
		}
		ids := append([]string(nil), mergedIDs...)
		if tc.spec.Kind == JobGaSearch {
			sort.Strings(ids)
		}
		got[tc.name] = executorGoldenEntry{Local: lraw, Pool: praw, MergedIDs: ids}

		if tc.spec.Kind == JobExperiment {
			stim, base := lr.Sub["stimulus"], lr.Sub["bist_baseline"]
			if stim == nil || base == nil {
				t.Fatalf("experiment: missing sub-results %v", lr.Sub)
			}
			if stim.Cycles == 0 || base.Cycles != stim.Cycles {
				t.Errorf("experiment: baseline ran %d cycles, stimulus %d — not an equal-length comparison",
					base.Cycles, stim.Cycles)
			}
		}
	}

	path := filepath.Join("testdata", "executor_golden.json")
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *update {
		if err := os.WriteFile(path, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update at a commit whose executors you trust)", err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("executor results diverged from %s:\ngot  %s\nwant %s", path, gotJSON, want)
	}
}
