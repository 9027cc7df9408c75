package engine

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeGenerations leaves two generations of a journaled queue's log:
// .prev holds a snapshot run of one job with the second job's submit
// behind it, the live log a snapshot run of both jobs.
func writeGenerations(t *testing.T, path string) {
	t.Helper()
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Journal: j, Exec: instantExec})
	for _, n := range []int{100, 200} {
		if _, err := q.Submit(specN(n)); err != nil {
			t.Fatal(err)
		}
		if err := q.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prevPath(path)); err != nil {
		t.Fatalf("compaction left no .prev: %v", err)
	}
}

// requireBothJobs fails unless jobs are writeGenerations' two.
func requireBothJobs(t *testing.T, jobs []Job) {
	t.Helper()
	if len(jobs) != 2 || jobs[0].Spec.Vectors.Count != 100 || jobs[1].Spec.Vectors.Count != 200 {
		t.Fatalf("recovered %+v, want the jobs of 100 and 200 vectors", jobs)
	}
}

// TestCheckpointDetectsCorruption: a bit flip in the live log's
// snapshot run fails CRC validation, and recovery salvages the previous
// generation — which holds every record up to the compaction that
// rotated it — instead of resuming garbage or crashing.
func TestCheckpointDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeGenerations(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipBit(data, len(data)/3), 0o644); err != nil {
		t.Fatal(err)
	}

	salvagedBefore := counter("queue.checkpoint_salvaged")
	jobs, err := recoverLog(path)
	if err != nil {
		t.Fatalf("recovery with a valid .prev failed: %v", err)
	}
	if d := counter("queue.checkpoint_salvaged") - salvagedBefore; d != 1 {
		t.Fatalf("queue.checkpoint_salvaged advanced by %d, want 1", d)
	}
	requireBothJobs(t, jobs)
}

// TestCheckpointTornWriteSalvaged: the engine.checkpoint.write chaos
// point tears the live log mid-run, like a rename whose data never
// reached the disk, and the journal appends on to the rotated .prev.
// Recovery detects the cut run and salvages .prev with those appends.
func TestCheckpointTornWriteSalvaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Journal: j, Exec: instantExec})
	if _, err := q.Submit(specN(100)); err != nil {
		t.Fatal(err)
	}
	armChaos(t, "engine.checkpoint.write=shortwrite", 9)
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err) // the torn write itself reports success, like a real tear
	}
	if _, err := q.Submit(specN(200)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseLog(data); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("torn log decoded with err %v, want ErrCheckpointCorrupt", err)
	}
	jobs, err := recoverLog(path)
	if err != nil {
		t.Fatalf("recovery after a torn write failed: %v", err)
	}
	requireBothJobs(t, jobs)
}

// TestCheckpointBothGenerationsCorrupt: with no loadable generation,
// opening the log reports ErrCheckpointCorrupt rather than crashing or
// silently resuming nothing.
func TestCheckpointBothGenerationsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeGenerations(t, path)
	for _, p := range []string{path, prevPath(path)} {
		if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := recoverLog(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("recovery err %v, want ErrCheckpointCorrupt", err)
	}
}

// TestCheckpointMissingLiveFallsBackToPrev: a crash after rotation but
// before the rename leaves only .prev; recovery picks it up.
func TestCheckpointMissingLiveFallsBackToPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeGenerations(t, path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	jobs, err := recoverLog(path)
	if err != nil {
		t.Fatalf("recovery from .prev failed: %v", err)
	}
	requireBothJobs(t, jobs)
}

// TestCheckpointMissingEntirely: no log, no .prev — a first boot, which
// creates the log and recovers an empty queue without an error, unlike
// corruption.
func TestCheckpointMissingEntirely(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jobs, err := recoverLog(path)
	if err != nil {
		t.Fatalf("recovery of a first boot: %v", err)
	}
	if len(jobs) != 0 {
		t.Fatalf("first boot recovered %+v", jobs)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("first boot created no log: %v", err)
	}
}

// TestCheckpointVersion1Rejected: a JSON checkpoint of an older build
// is no log — it opens with no snapshot run — and is refused as
// corrupt and left as it was, not silently accepted.
func TestCheckpointVersion1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	v1 := []byte("{\n  \"version\": 1,\n  \"next_id\": 1,\n  \"jobs\": []\n}\n")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := recoverLog(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("recovery of a v1 file err %v, want ErrCheckpointCorrupt", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != string(v1) {
		t.Fatalf("refused v1 file is now %q (%v)", data, err)
	}
}

// FuzzLoadCheckpoint throws arbitrary bytes at the live slot of a
// journal with a valid previous generation alongside. Whatever the
// corruption — truncation, bit flips, hostile frames — recovery must
// never fail or panic, and must land in exactly one of two states: the
// fuzzed bytes opened as the log, or the .prev generation was salvaged
// exactly, nothing more and nothing less.
func FuzzLoadCheckpoint(f *testing.F) {
	// Seed with a valid log plus characteristic corruptions.
	valid := mustFrames(f,
		JournalRecord{T: recSnapshot, NextID: 1, Frames: 1},
		JournalRecord{T: recJob, JobID: "job-0001", Seq: 2, Job: &Job{ID: "job-0001",
			Spec: JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: 10}}, State: JobQueued}},
	)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipBit(valid, len(valid)/2))
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte("#crc32c=00000000\n"))

	// prev holds a record behind its snapshot run; want is what it alone
	// recovers.
	prev := mustFrames(f,
		JournalRecord{T: recSnapshot, NextID: 2, Frames: 1},
		JournalRecord{T: recJob, JobID: "job-0002", Job: &Job{ID: "job-0002",
			Spec: JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: 20}}, State: JobQueued}},
		JournalRecord{T: recFinish, JobID: "job-0002", Seq: 4, State: JobCompleted, Result: &JobResult{Cycles: 4}},
	)
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "prev.wal"), prev, 0o644); err != nil {
		f.Fatal(err)
	}
	want, err := recoverLog(filepath.Join(dir, "prev.wal"))
	if err != nil || len(want) != 1 || want[0].ID != "job-0002" || want[0].State != JobCompleted {
		f.Fatalf(".prev alone recovers %+v (%v), want job-0002 completed", want, err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(prevPath(path), prev, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := recoverLog(path)
		if err != nil {
			t.Fatalf("recovery beside a valid .prev: %v", err)
		}
		if _, perr := parseLog(data); perr == nil {
			return // fuzz happened to build a valid log; its content won
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("damaged live slot recovered %+v, want .prev's %+v", got, want)
		}
	})
}
