package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// instantExec finishes every job at once with a result that names the
// job's spec, so a recovered result can be matched to its submit.
func instantExec(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
	return &JobResult{Cycles: spec.Vectors.Count, Coverage: 1}, nil
}

// ackGates holds instant jobs back until their Submit has returned.
// Submit makes a job runnable before it appends the submit record, so a
// job that finishes inside that one fsync journals its finish ahead of
// its submit; a crash image taken in between holds a finish for a job
// nobody was told exists. That is a property of Submit, not of
// compaction; these tests are about finishes of acknowledged submits,
// so the executor waits for the acknowledgement. Jobs are keyed by
// their spec's vector count, 1..n.
type ackGates []chan struct{}

func newAckGates(n int) ackGates {
	g := make(ackGates, n+1)
	for i := range g {
		g[i] = make(chan struct{})
	}
	return g
}

func (g ackGates) exec(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
	<-g[spec.Vectors.Count]
	return instantExec(ctx, spec, update)
}

// submit submits job n and opens its gate once the submit is acknowledged.
func (g ackGates) submit(t testing.TB, q *Queue, n int) Job {
	t.Helper()
	job, err := q.Submit(specN(n))
	if err != nil {
		t.Fatal(err)
	}
	close(g[n])
	return job
}

// copyState reads a live state directory the way a crash image would be
// read by the next process: the journal first, then the checkpoint,
// then its .prev. In that order every record a later truncation drops
// from the journal is covered by the (same or newer) checkpoint copied
// after it. A missing file is copied as missing. It returns an error
// rather than failing the test because compaction hooks call it off the
// test's goroutine.
func copyState(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"journal.wal", "ckpt.json", "ckpt.json.prev"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// recoverCopy restarts a queue on a copied state directory.
func recoverCopy(t testing.TB, dir string) *Queue {
	t.Helper()
	j, recs, err := OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	q := NewQueue(QueueOptions{Exec: instantExec, Events: NewJobEventBroker()})
	if err := q.Recover(filepath.Join(dir, "ckpt.json"), recs); err != nil {
		t.Fatal(err)
	}
	return q
}

// waitFinishAppends blocks until n more finish records than base have
// been appended and flushed: the counter moves inside Append's critical
// section, and Mark queues behind the append that moved it last.
func waitFinishAppends(t testing.TB, j *Journal, base int64, n int) {
	t.Helper()
	finishes := famJournalRecords.Counter(recFinish)
	deadline := time.Now().Add(30 * time.Second)
	for finishes.Load()-base < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d finish records appended", finishes.Load()-base, n)
		}
		time.Sleep(time.Millisecond)
	}
	j.Mark()
}

// TestConcurrentCheckpointKeepsEveryFinish: Checkpoint() entered from
// several goroutines at once must never leave an older snapshot on disk
// beside a journal already truncated for a newer one. A crash image
// taken whenever every finish so far has been acknowledged — no drain —
// has to recover every one of those jobs completed with its result.
func TestConcurrentCheckpointKeepsEveryFinish(t *testing.T) {
	// Without the mutex an image loses a finish about one time in six,
	// so one round of twenty all but always shows it. A round is ~400
	// fsyncs, which is what this test costs.
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for r := 0; r < rounds && !t.Failed(); r++ {
		concurrentCheckpointRound(t, 20, 10)
	}
}

// concurrentCheckpointRound pushes batches of perBatch jobs through a
// four-worker queue while two goroutines call Checkpoint() in a loop,
// and takes a crash image at the end of every batch.
func concurrentCheckpointRound(t *testing.T, batches, perBatch int) {
	dir := t.TempDir()
	j, _, err := OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	jobs := batches * perBatch
	gates := newAckGates(jobs)
	q := NewQueue(QueueOptions{Workers: 4, MaxPending: jobs, Exec: gates.exec,
		Journal: j, Checkpoint: filepath.Join(dir, "ckpt.json"), Events: NewJobEventBroker()})
	q.Start()
	base := famJournalRecords.Counter(recFinish).Load()

	stop := make(chan struct{})
	var loops sync.WaitGroup
	for i := 0; i < 2; i++ {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := q.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ids := make([]string, jobs+1)
	images := make([]string, batches)
	for b := range images {
		for n := b*perBatch + 1; n <= (b+1)*perBatch; n++ {
			ids[n] = gates.submit(t, q, n).ID
		}
		waitFinishAppends(t, j, base, (b+1)*perBatch)
		images[b] = filepath.Join(dir, fmt.Sprintf("image-%d", b))
		if err := copyState(dir, images[b]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	loops.Wait()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for b, image := range images {
		got := recoverCopy(t, image)
		lost := 0
		for n := 1; n <= (b+1)*perBatch; n++ {
			job, ok := got.Get(ids[n])
			if !ok || job.State != JobCompleted || job.Result == nil || job.Result.Cycles != n {
				lost++
				t.Logf("%s recovered as %+v", ids[n], job)
			}
		}
		if lost > 0 {
			t.Errorf("crash image after %d jobs lost %d acknowledged finishes", (b+1)*perBatch, lost)
		}
	}
}
