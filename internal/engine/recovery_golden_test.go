package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
)

// recoveredState is the canonical form of what Recover rebuilds: the
// jobs in submission order, the ID the next submit would mint, the SSE
// sequence number each job's next event would get, and the ga_search
// generations a resumed search would replay.
type recoveredState struct {
	Jobs      []Job                    `json:"jobs"`
	NextJobID string                   `json:"next_job_id"`
	NextSeqs  map[string]int64         `json:"next_seqs"`
	GaGens    map[string][]GaGenRecord `json:"ga_gens"`
}

// TestRecoveredStateGolden pins recovery by its result rather than by
// the bytes on disk: fixedQueue's state plus a ga_search job with two
// journaled generations is compacted with Checkpoint(), a fixed journal
// tail lands on top (one generation of it already covered by the
// compaction), and what a restart rebuilds from the journal must equal
// testdata/recovered_state.golden.json.
func TestRecoveredStateGolden(t *testing.T) {
	golden := filepath.Join("testdata", "recovered_state.golden.json")
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	clock := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

	j, _, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	q := fixedQueue(t, QueueOptions{Journal: j, Events: NewJobEventBroker()})
	ga, err := q.Submit(JobSpec{Kind: JobGaSearch, Ga: &api.GaSpec{
		Population: 2, Generations: 4, Seed: 3, Slots: 4, Iterations: 10}})
	if err != nil {
		t.Fatal(err)
	}
	gens := []GaGenRecord{
		{Gen: 0, Coverage: []float64{0.5, 0.25}, Cycles: []int{40, 44}, Faults: 100, Detected: []int{50, 25}},
		{Gen: 1, Coverage: []float64{0.625, 0.5}, Cycles: []int{41, 40}, Faults: 100, Detected: []int{62, 50}},
		{Gen: 2, Coverage: []float64{0.75, 0.625}, Cycles: []int{43, 41}, Faults: 100, Detected: []int{75, 62}},
	}
	q.recordGaGen(ga.ID, gens[0])
	q.recordGaGen(ga.ID, gens[1])
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	tail := []JournalRecord{
		{T: recState, JobID: "job-0003", Seq: 2, At: clock.Add(5 * time.Second), State: JobRunning, Attempts: 1},
		{T: recProgress, JobID: "job-0003", Seq: 3, State: JobRunning,
			Progress: &Progress{Done: 512, Total: 2048, Detected: 300, Remaining: 700, Coverage: 0.3}},
		{T: recFinish, JobID: "job-0004", Seq: 2, At: clock.Add(6 * time.Second), State: JobCompleted,
			Result: &JobResult{Faults: 1000, Detected: 640, Cycles: 512, Coverage: 0.64, Seconds: 1.5}, Attempts: 2},
		{T: recGaGen, JobID: ga.ID, Ga: &gens[1]},
		{T: recGaGen, JobID: ga.ID, Ga: &gens[2]},
		{T: recSubmit, JobID: "job-0006", Seq: 1, At: clock.Add(7 * time.Second), NextID: 6, State: JobQueued,
			Job: &Job{ID: "job-0006", Spec: specN(64), State: JobQueued, Created: clock.Add(7 * time.Second)}},
	}
	for _, rec := range tail {
		if err := j.Append(rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	events := NewJobEventBroker()
	q2 := NewQueue(QueueOptions{Journal: j2, Events: events,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		}})
	if err := q2.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	got := recoveredState{Jobs: q2.Jobs(), NextSeqs: map[string]int64{}}
	for id, seq := range events.Seqs() {
		got.NextSeqs[id] = seq + 1
	}
	q2.mu.Lock()
	got.NextJobID = fmt.Sprintf("job-%04d", q2.nextID+1)
	got.GaGens = q2.gaGens
	data, err := json.MarshalIndent(got, "", "  ")
	q2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("recovered state drifted from %s:\ngot:\n%s\nwant:\n%s", golden, data, want)
	}
}
