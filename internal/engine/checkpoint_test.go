package engine

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/api"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedQueue builds the deterministic queue state behind the golden
// files: a completed, a failed, a still-queued and a panic-requeued job
// (attempts already spent, sitting out its retry backoff) with pinned
// timestamps and trace IDs, on a queue wired with opts.
func fixedQueue(t *testing.T, opts QueueOptions) *Queue {
	t.Helper()
	clock := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	traces := 0
	opts.now = func() time.Time { return clock }
	opts.traceID = func() string { traces++; return fmt.Sprintf("trace-%04d", traces) }
	opts.Exec = func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		return &JobResult{}, nil
	}
	q := NewQueue(opts)
	done, _ := q.Submit(JobSpec{Kind: JobFaultSim,
		Vectors: VectorSource{Kind: "bist", Count: 4096, Seed: 1}, Workers: 4})
	bad, _ := q.Submit(JobSpec{Kind: JobSeqATPG, Frames: 3, SampleEvery: 40})
	if _, err := q.Submit(JobSpec{Kind: JobNDetect, NDetect: 5,
		Vectors: VectorSource{Kind: "bist", Count: 2048}}); err != nil {
		t.Fatal(err)
	}
	retrying, _ := q.Submit(JobSpec{Kind: JobFaultSim,
		Vectors: VectorSource{Kind: "bist", Count: 512}, DeadlineSec: 30})
	// Hand-finish the first two without running the pool so the state
	// is fully deterministic.
	q.mu.Lock()
	started := clock.Add(time.Second)
	finished := clock.Add(3 * time.Second)
	j1 := q.jobs[done.ID]
	j1.State = JobCompleted
	j1.Attempts = 1
	j1.Started, j1.Finished = &started, &finished
	j1.Progress = Progress{Done: 4096, Total: 4096, Detected: 8800, Remaining: 520, Coverage: 0.9442}
	j1.Result = &JobResult{Faults: 9320, Detected: 8800, Cycles: 4096, Coverage: 0.9442, Seconds: 2}
	j2 := q.jobs[bad.ID]
	j2.State = JobFailed
	j2.Attempts = 2
	j2.Started, j2.Finished = &started, &finished
	j2.Error = "engine: job panic: simulated"
	// A job that panicked once and went back to queued: Attempts must
	// survive the checkpoint round trip so a restore keeps charging the
	// same retry budget.
	j4 := q.jobs[retrying.ID]
	j4.Attempts = 1
	j4.Error = "engine: job panic: simulated"
	q.mu.Unlock()
	return q
}

// TestCheckpointRunGolden pins the log's bytes: the snapshot run a
// compaction writes for fixedQueue's state, with a ga_search job's
// generations and the jobs' SSE numbers, and the same bytes again after
// the log is reopened, recovered and compacted.
func TestCheckpointRunGolden(t *testing.T) {
	golden := filepath.Join("testdata", "snapshot_run.golden")
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	q := fixedQueue(t, QueueOptions{Journal: j, Events: NewJobEventBroker()})
	ga, err := q.Submit(JobSpec{Kind: JobGaSearch, Ga: &api.GaSpec{
		Population: 2, Generations: 4, Seed: 3, Slots: 4, Iterations: 10}})
	if err != nil {
		t.Fatal(err)
	}
	q.recordGaGen(ga.ID, GaGenRecord{Gen: 0, Coverage: []float64{0.5, 0.25}, Cycles: []int{40, 44}, Faults: 100, Detected: []int{50, 25}})
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot run drifted from %s:\ngot:\n%q\nwant:\n%q", golden, got, want)
	}

	again := filepath.Join(t.TempDir(), "again.wal")
	if err := os.WriteFile(again, want, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := OpenJournal(again)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	q2 := NewQueue(QueueOptions{Journal: j2, Events: NewJobEventBroker(), Exec: instantExec})
	if err := q2.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	// A requeued job's spent attempts survive the round trip, so retry
	// budgets keep charging across restarts.
	if j, ok := q2.Get("job-0004"); !ok || j.Attempts != 1 || j.State != JobQueued || j.Spec.DeadlineSec != 30 {
		t.Fatalf("requeued job did not survive recovery intact: %+v", j)
	}
	// Recovery numbers events past the slack gap, and the snapshot
	// records where numbering stands; apart from that gap the recovered
	// queue writes the same run.
	if err := q2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first, err := readLog(golden)
	if err != nil {
		t.Fatal(err)
	}
	second, err := readLog(again)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second.recs {
		if second.recs[i].T == recJob {
			second.recs[i].Seq -= journalSeqSlack
		}
	}
	if !reflect.DeepEqual(second.recs, first.recs) {
		t.Errorf("recovered queue wrote\n%+v\nwant\n%+v", second.recs, first.recs)
	}
}

// TestCheckpointResume is the restart story: drain a queue with work
// still pending, reopen its log into a fresh queue, and watch the
// pending job run to completion while finished results survive.
func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	release := make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		if spec.Vectors.Count == 200 {
			// Blocks forever in the first life; a forced drain cancels
			// it back to queued, exactly like a long campaign cut short
			// by SIGTERM.
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ErrInterrupted
			}
		}
		return &JobResult{Coverage: 0.5, Cycles: spec.Vectors.Count}, nil
	}

	j1, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q1 := NewQueue(QueueOptions{Workers: 1, Journal: j1, Exec: exec})
	q1.Start()
	first, _ := q1.Submit(specN(100))
	waitState(t, q1, first.ID, JobCompleted)
	second, _ := q1.Submit(specN(200))
	waitState(t, q1, second.ID, JobRunning)
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q1.Drain(drainCtx); err == nil {
		t.Fatal("forced drain of a blocked job reported no deadline error")
	}
	if j, _ := q1.Get(second.ID); j.State != JobQueued {
		t.Fatalf("interrupted job state %s, want queued", j.State)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	close(release)
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	q2 := NewQueue(QueueOptions{Workers: 1, Journal: j2, Exec: exec})
	if err := q2.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	if j, ok := q2.Get(first.ID); !ok || j.State != JobCompleted || j.Result == nil || j.Result.Cycles != 100 {
		t.Fatalf("completed job did not survive restart: %+v", j)
	}
	q2.Start()
	j := waitState(t, q2, second.ID, JobCompleted)
	if j.Result == nil || j.Result.Cycles != 200 {
		t.Fatalf("resumed job result %+v", j.Result)
	}
	// A third submission continues the ID sequence instead of reusing
	// job-0002.
	third, err := q2.Submit(specN(300))
	if err != nil {
		t.Fatal(err)
	}
	if third.ID != "job-0003" {
		t.Fatalf("post-restore ID %s, want job-0003", third.ID)
	}
	waitState(t, q2, third.ID, JobCompleted)
	// Settle the pool before t.TempDir cleanup races its checkpoints.
	if err := q2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
