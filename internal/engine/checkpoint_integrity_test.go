package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func integrityQueue(path string) *Queue {
	return NewQueue(QueueOptions{
		Checkpoint: path,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		},
	})
}

// writeGenerations writes two snapshot file generations: one job in
// the .prev slot, two jobs in the live file.
func writeGenerations(t *testing.T, path string) {
	t.Helper()
	q := integrityQueue(path)
	if _, err := q.Submit(specN(100)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(specN(200)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prevPath(path)); err != nil {
		t.Fatalf("checkpoint rotation left no .prev: %v", err)
	}
}

// TestCheckpointDetectsCorruption: a bit flip in the live file's
// snapshot run fails CRC validation, and Recover salvages the previous
// generation instead of resuming garbage or crashing.
func TestCheckpointDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	writeGenerations(t, path)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	salvagedBefore := counter("queue.checkpoint_salvaged")
	q := integrityQueue(path)
	if err := q.Recover(path, nil); err != nil {
		t.Fatalf("restore with valid .prev failed: %v", err)
	}
	if d := counter("queue.checkpoint_salvaged") - salvagedBefore; d != 1 {
		t.Fatalf("queue.checkpoint_salvaged advanced by %d, want 1", d)
	}
	// The salvaged generation has one job, not two.
	if jobs := q.Jobs(); len(jobs) != 1 || jobs[0].Spec.Vectors.Count != 100 {
		t.Fatalf("salvaged queue has %+v, want the single first-generation job", jobs)
	}
}

// TestCheckpointTornWriteSalvaged: the engine.checkpoint.write chaos
// point tears the live file mid-run, like a rename whose data never
// reached the disk. Recover detects the cut run and salvages .prev.
func TestCheckpointTornWriteSalvaged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	q := integrityQueue(path)
	if _, err := q.Submit(specN(100)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	armChaos(t, "engine.checkpoint.write=shortwrite", 9)
	if _, err := q.Submit(specN(200)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err) // the torn write itself reports success, like a real tear
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseLog(data); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("torn file decoded with err %v, want ErrCheckpointCorrupt", err)
	}

	q2 := integrityQueue(path)
	if err := q2.Recover(path, nil); err != nil {
		t.Fatalf("restore after torn write failed: %v", err)
	}
	if jobs := q2.Jobs(); len(jobs) != 1 {
		t.Fatalf("salvaged %d jobs, want 1", len(jobs))
	}
}

// TestCheckpointBothGenerationsCorrupt: with no loadable generation,
// Recover reports ErrCheckpointCorrupt (so the caller can decide to
// start fresh) rather than crashing or silently resuming nothing.
func TestCheckpointBothGenerationsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	writeGenerations(t, path)
	for _, p := range []string{path, prevPath(path)} {
		if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	q := integrityQueue(path)
	err := q.Recover(path, nil)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("restore err %v, want ErrCheckpointCorrupt", err)
	}
}

// TestCheckpointMissingLiveFallsBackToPrev: a crash after rotation but
// before the rename leaves only .prev; Recover picks it up.
func TestCheckpointMissingLiveFallsBackToPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	writeGenerations(t, path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	q := integrityQueue(path)
	if err := q.Recover(path, nil); err != nil {
		t.Fatalf("restore from .prev failed: %v", err)
	}
	if jobs := q.Jobs(); len(jobs) != 1 {
		t.Fatalf("salvaged %d jobs, want 1", len(jobs))
	}
}

// TestCheckpointMissingEntirely: no file, no .prev — a first boot,
// which recovers an empty queue without an error, unlike corruption.
func TestCheckpointMissingEntirely(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	q := integrityQueue(path)
	if err := q.Recover(path, nil); err != nil {
		t.Fatalf("recover of a first boot: %v", err)
	}
	if jobs := q.Jobs(); len(jobs) != 0 {
		t.Fatalf("first boot recovered %+v", jobs)
	}
}

// TestCheckpointVersion1Rejected: a JSON checkpoint of an older build
// is no log — it opens with no snapshot run — and is refused as
// corrupt, not silently accepted.
func TestCheckpointVersion1Rejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	v1 := []byte("{\n  \"version\": 1,\n  \"next_id\": 1,\n  \"jobs\": []\n}\n")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	q := integrityQueue(path)
	err := q.Recover(path, nil)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("recover of a v1 file err %v, want ErrCheckpointCorrupt", err)
	}
}

// FuzzLoadCheckpoint throws arbitrary bytes at the live slot of a
// snapshot file with a valid previous generation alongside. Whatever
// the corruption — truncation, bit flips, hostile frames — Recover must
// never panic, and must land in exactly one of two states: the fuzzed
// bytes parsed as a log, or the .prev generation was salvaged.
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

	prev := mustFrames(f,
		JournalRecord{T: recSnapshot, NextID: 2, Frames: 1},
		JournalRecord{T: recJob, JobID: "job-0002", Job: &Job{ID: "job-0002",
			Spec: JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: 20}}, State: JobCompleted}},
	)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(prevPath(path), prev, 0o644); err != nil {
			t.Fatal(err)
		}
		q := integrityQueue(path)
		if err := q.Recover(path, nil); err != nil {
			t.Fatalf("recover with valid .prev errored: %v", err)
		}
		jobs := q.Jobs()
		if _, perr := parseLog(data); perr == nil {
			return // fuzz happened to build a valid log; its content won
		}
		// Corrupt live file: the salvaged state must be exactly .prev.
		if len(jobs) != 1 || jobs[0].ID != "job-0002" || jobs[0].State != JobCompleted {
			t.Fatalf("salvage produced %+v, want the .prev generation", jobs)
		}
	})
}
