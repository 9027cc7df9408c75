package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCompactionChaosKinds fires each kind of the engine.checkpoint.write
// chaos point on a compaction of a journaled queue: error (the
// compaction fails, the log goes on) and shortwrite (the live slot is
// torn mid-run after the rotation, and the journal appends on to the
// rotated generation). Crash images after the fault, between the
// rotation and the rename of every later compaction, after the next
// compaction and after Drain each recover every acknowledged finish.
func TestCompactionChaosKinds(t *testing.T) {
	for _, kind := range []string{"error", "shortwrite"} {
		t.Run(kind, func(t *testing.T) {
			const jobs = 30
			dir := t.TempDir()
			j, _, err := OpenJournal(filepath.Join(dir, "journal.wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			gates := newAckGates(jobs)
			ids := make([]string, jobs+1)
			acked := 0
			type image struct {
				dir   string
				acked int
			}
			var rotations []image
			// Compactions run on this goroutine (Checkpoint, Drain): the
			// floor keeps the compactor idle.
			hook := func(step, _ string) {
				if step == stepRotated {
					img := image{filepath.Join(dir, fmt.Sprintf("image-rotated-%d", len(rotations))), acked}
					if err := copyState(dir, img.dir); err != nil {
						t.Error(err)
					}
					rotations = append(rotations, img)
				}
			}
			q := NewQueue(QueueOptions{Workers: 2, MaxPending: jobs, Journal: j, Exec: gates.exec,
				Events: NewJobEventBroker(), compactHook: hook})
			q.Start()
			base := famJournalRecords.Counter(recFinish).Load()
			finish := func(from, to int) {
				for n := from; n <= to; n++ {
					ids[n] = gates.submit(t, q, n).ID
				}
				waitFinishAppends(t, j, base, to)
				acked = to
			}
			verify := func(image string, acked int) {
				t.Helper()
				got := recoverCopy(t, image)
				for n := 1; n <= acked; n++ {
					if job, ok := got.Get(ids[n]); !ok || job.State != JobCompleted || job.Result == nil || job.Result.Cycles != n {
						t.Errorf("%s: acknowledged finish of %s recovered as %+v", image, ids[n], job)
					}
				}
			}
			check := func(image string, acked int) {
				t.Helper()
				if err := copyState(dir, image); err != nil {
					t.Fatal(err)
				}
				verify(image, acked)
			}

			finish(1, 10)
			armChaos(t, "engine.checkpoint.write="+kind, 1)
			injected := counter("chaos.injected")
			err = q.Checkpoint()
			if got := counter("chaos.injected") - injected; got != 1 {
				t.Fatalf("chaos fired %d times on one compaction", got)
			}
			if (err != nil) != (kind == "error") {
				t.Fatalf("compaction with a %s fault returned %v", kind, err)
			}
			finish(11, 20)
			check(filepath.Join(dir, "image-fault"), 20)
			if err := q.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			finish(21, jobs)
			check(filepath.Join(dir, "image-next"), jobs)
			if err := q.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			check(filepath.Join(dir, "image-drained"), jobs)
			if len(rotations) != 2 {
				t.Fatalf("%d rotations after the fault, want the next compaction's and Drain's", len(rotations))
			}
			for _, img := range rotations {
				verify(img.dir, img.acked)
			}
		})
	}
}

// compactedTwice leaves a journaled queue's state directory with two
// compacted generations: the live log, written by Drain, whose snapshot
// run holds three finished jobs, and in .prev the log it replaced, a
// snapshot of two with the third's records behind it. It returns the
// log's path and the size of its snapshot run.
func compactedTwice(t *testing.T, dir string) (string, int64) {
	t.Helper()
	path := filepath.Join(dir, "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Workers: 1, Journal: j, Exec: instantExec, Events: NewJobEventBroker()})
	q.Start()
	for n := 1; n <= 3; n++ {
		job, err := q.Submit(specN(n))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, q, job.ID, JobCompleted)
		if n == 2 {
			if err := q.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := readLog(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, img.run
}

// recoverLog is OpenJournal plus Recover on the log at path.
func recoverLog(path string) ([]Job, error) {
	j, recs, err := OpenJournal(path)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	q := NewQueue(QueueOptions{Journal: j, Exec: instantExec})
	if err := q.Recover("", recs); err != nil {
		return nil, err
	}
	return q.Jobs(), nil
}

// TestJournalRunByteFlipSalvaged flips each byte of a log's snapshot
// run in turn. Every flip is corruption, not a torn tail: recovery
// salvages .prev — which holds every record up to the compaction that
// rotated it, so the state is the same — counts one salvage, and leaves
// the damaged file as long as it was.
func TestJournalRunByteFlipSalvaged(t *testing.T) {
	dir := t.TempDir()
	path, run := compactedTwice(t, dir)
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(prevPath(path))
	if err != nil {
		t.Fatal(err)
	}
	want, err := recoverLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 {
		t.Fatalf("reference recovery holds %d jobs, want 3", len(want))
	}
	for i := int64(0); i < run; i++ {
		img := filepath.Join(dir, fmt.Sprintf("flip-%d", i))
		if err := os.Mkdir(img, 0o755); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(img, "journal.wal")
		if err := os.WriteFile(p, flipBit(live, int(i)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(prevPath(p), prev, 0o644); err != nil {
			t.Fatal(err)
		}
		salvaged := counter("queue.checkpoint_salvaged")
		got, err := recoverLog(p)
		if err != nil {
			t.Fatalf("byte %d of %d flipped: %v", i, run, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("byte %d flipped: recovered %+v, want %+v", i, got, want)
		}
		if d := counter("queue.checkpoint_salvaged") - salvaged; d != 1 {
			t.Fatalf("byte %d flipped: queue.checkpoint_salvaged advanced by %d, want 1", i, d)
		}
		if fi, err := os.Stat(p); err != nil || fi.Size() != int64(len(live)) {
			t.Fatalf("byte %d flipped: the damaged log is %v bytes (%v), was %d", i, fi.Size(), err, len(live))
		}
		os.RemoveAll(img)
	}
}

// TestJournalBothGenerationsCorrupt: with the snapshot runs of both
// generations damaged, opening the log fails with ErrCheckpointCorrupt
// and neither file is shortened.
func TestJournalBothGenerationsCorrupt(t *testing.T) {
	path, run := compactedTwice(t, t.TempDir())
	sizes := map[string]int{}
	for _, p := range []string{path, prevPath(path)} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, flipBit(data, int(run)/2), 0o644); err != nil {
			t.Fatal(err)
		}
		sizes[p] = len(data)
	}
	if _, err := recoverLog(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("recovery of two damaged generations returned %v, want ErrCheckpointCorrupt", err)
	}
	for p, size := range sizes {
		if fi, err := os.Stat(p); err != nil || fi.Size() != int64(size) {
			t.Fatalf("%s was %d bytes, is %v (%v)", p, size, fi.Size(), err)
		}
	}
}

// TestJournalSnapshotFramesBounded: a snapshot of many jobs is many frames, and
// none of them — the head included — is larger than the largest job
// frame, so journalMaxRecord bounds a snapshot however long the history.
func TestJournalSnapshotFramesBounded(t *testing.T) {
	const jobs = 5000
	q := NewQueue(QueueOptions{MaxPending: jobs, Exec: instantExec})
	for n := 1; n <= jobs; n++ {
		if _, err := q.Submit(specN(n)); err != nil {
			t.Fatal(err)
		}
	}
	q.mu.Lock()
	q.jobs["job-0001"].State = JobCompleted
	q.jobs["job-0001"].Result = &JobResult{Faults: 9320, Detected: 8800, Cycles: 4096, Coverage: 0.9442}
	q.mu.Unlock()
	run, err := q.snapshotRun()
	if err != nil {
		t.Fatal(err)
	}
	img, err := parseLog(run)
	if err != nil {
		t.Fatal(err)
	}
	if img.run != int64(len(run)) || len(img.recs) != 1+jobs {
		t.Fatalf("snapshot of %d jobs parses as %d records over %d of %d bytes", jobs, len(img.recs), img.run, len(run))
	}
	var largest, largestJob uint32
	for off := 0; off < len(run); {
		n := binary.LittleEndian.Uint32(run[off:])
		largest = max(largest, n)
		if off > 0 {
			largestJob = max(largestJob, n)
		}
		off += 8 + int(n)
	}
	if largest > largestJob {
		t.Fatalf("a %d-job snapshot has a %d-byte frame, its largest job frame is %d bytes", jobs, largest, largestJob)
	}
}
