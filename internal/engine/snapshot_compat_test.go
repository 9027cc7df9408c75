package engine

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSnapshotFileOpensAsJournal: a snapshot file is a log whose
// snapshot run has no records after it, so the file a journal-less
// queue wrote (testdata/snapshot_run.golden holds those bytes for
// fixedQueue's state and a ga_search job) opens as a journal and
// recovers every job, the ga_search generation and the requeued job's
// spent attempt.
func TestSnapshotFileOpensAsJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot_run.golden"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaigns.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	q := NewQueue(QueueOptions{Journal: j, Exec: instantExec, Events: NewJobEventBroker()})
	if err := q.Recover("", recs); err != nil {
		t.Fatal(err)
	}

	want := map[string]JobState{
		"job-0001": JobCompleted,
		"job-0002": JobFailed,
		"job-0003": JobQueued,
		"job-0004": JobQueued,
		"job-0005": JobQueued,
	}
	jobs := q.Jobs()
	if len(jobs) != len(want) {
		t.Fatalf("recovered %d jobs, want %d: %+v", len(jobs), len(want), jobs)
	}
	for _, job := range jobs {
		if job.State != want[job.ID] {
			t.Errorf("%s recovered %s, want %s", job.ID, job.State, want[job.ID])
		}
	}
	if job, _ := q.Get("job-0001"); job.Result == nil || job.Result.Detected != 8800 || job.Result.Faults != 9320 {
		t.Errorf("completed job's result recovered as %+v", job.Result)
	}
	if job, _ := q.Get("job-0002"); job.Attempts != 2 || job.Error != "engine: job panic: simulated" {
		t.Errorf("failed job recovered as %+v", job)
	}
	if job, _ := q.Get("job-0004"); job.Attempts != 1 || job.Spec.DeadlineSec != 30 {
		t.Errorf("requeued job recovered as %+v, want 1 spent attempt and its 30 s deadline", job)
	}
	if job, _ := q.Get("job-0005"); job.Spec.Kind != JobGaSearch {
		t.Errorf("job-0005 recovered as a %s job, want ga_search", job.Spec.Kind)
	}
	q.mu.Lock()
	gens := q.gaGens["job-0005"]
	q.mu.Unlock()
	if len(gens) != 1 || gens[0].Gen != 0 || gens[0].Faults != 100 || len(gens[0].Coverage) != 2 {
		t.Errorf("ga_search generations recovered as %+v, want generation 0 of 100 faults", gens)
	}
	if got, err := q.Submit(specN(1)); err != nil || got.ID != "job-0006" {
		t.Errorf("first submission after recovery got %q (%v), want job-0006", got.ID, err)
	}
}
