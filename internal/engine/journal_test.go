package engine

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/api"
)

// mustFrames renders records into wire bytes the way Append would.
func mustFrames(t testing.TB, recs ...JournalRecord) []byte {
	t.Helper()
	var out []byte
	for i := range recs {
		frame, err := encodeFrame(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
	return out
}

// TestJournalAppendReplay: records appended in one life come back in
// append order in the next, sync and async alike.
func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	want := []JournalRecord{
		{T: recSubmit, JobID: "job-0001", Seq: 1, At: at, NextID: 1,
			Job: &Job{ID: "job-0001", Spec: specN(100), State: JobQueued, Created: at}},
		{T: recState, JobID: "job-0001", Seq: 2, At: at.Add(time.Second), State: JobRunning, Attempts: 1},
		{T: recProgress, JobID: "job-0001", Seq: 3, Progress: &Progress{Done: 50, Total: 100}},
		{T: recFinish, JobID: "job-0001", Seq: 4, At: at.Add(2 * time.Second),
			State: JobCompleted, Result: &JobResult{Coverage: 0.5, Cycles: 100}, Attempts: 1},
	}
	for i, rec := range want {
		// Alternate sync/async: the close below must group-commit the
		// async stragglers.
		if err := j.Append(rec, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial frame; the
// reopen keeps every whole record, drops the tail, and truncates the
// file so the next append starts on a clean boundary.
func TestJournalTornTail(t *testing.T) {
	full := mustFrames(t,
		JournalRecord{T: recSnapshot},
		JournalRecord{T: recSubmit, JobID: "job-0001", Job: &Job{ID: "job-0001", Spec: specN(1), State: JobQueued}},
		JournalRecord{T: recState, JobID: "job-0001", State: JobRunning, Attempts: 1},
	)
	tornFrame := mustFrames(t, JournalRecord{T: recFinish, JobID: "job-0001", State: JobCompleted})
	cases := map[string][]byte{
		"short header":    append(append([]byte{}, full...), tornFrame[:5]...),
		"short payload":   append(append([]byte{}, full...), tornFrame[:len(tornFrame)-3]...),
		"flipped payload": append(append([]byte{}, full...), flipBit(tornFrame, 9)...),
		"flipped length":  append(append([]byte{}, full...), flipBit(tornFrame, 2)...),
		"zero garbage":    append(append([]byte{}, full...), make([]byte, 11)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.wal")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			j, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 || recs[0].T != recSubmit || recs[1].T != recState {
				t.Fatalf("salvaged %d records (%+v), want the 2 whole ones", len(recs), recs)
			}
			// The torn bytes are physically gone: appending and reopening
			// yields 3 clean records.
			if err := j.Append(JournalRecord{T: recFinish, JobID: "job-0001", State: JobFailed}, true); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, recs2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if len(recs2) != 3 || recs2[2].State != JobFailed {
				t.Fatalf("post-truncate append replayed as %+v", recs2)
			}
		})
	}
}

func flipBit(frame []byte, i int) []byte {
	out := append([]byte{}, frame...)
	out[i] ^= 0x40
	return out
}

// TestJournalTruncate: a compaction drops exactly the prefix its
// snapshot covers, keeps the records past its mark byte-for-byte behind
// the new snapshot run, and the journal stays appendable through the
// file swap.
func TestJournalTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Append(JournalRecord{T: recSubmit, JobID: "old", NextID: i,
			Job: &Job{ID: "old", Spec: specN(i), State: JobQueued}}, true); err != nil {
			t.Fatal(err)
		}
	}
	tail, run := j.growth()
	mark := tail + run
	if err := j.Append(JournalRecord{T: recState, JobID: "old", State: JobRunning, Attempts: 1}, false); err != nil {
		t.Fatal(err)
	}
	compactTo := func(j *Journal, mark int64, run []byte) {
		t.Helper()
		tmp, err := createTemp(path, run)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.compact(tmp, mark, int64(len(run)), func(string) {}); err != nil {
			t.Fatal(err)
		}
	}
	head := JournalRecord{T: recSnapshot, NextID: 3}
	compactTo(j, mark, mustFrames(t, head))
	// The swapped-in file descriptor still appends correctly.
	if err := j.Append(JournalRecord{T: recFinish, JobID: "old", State: JobCompleted}, true); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 3 || recs[0] != head || recs[1].T != recState || recs[2].T != recFinish {
		t.Fatalf("compacted journal replays %+v, want the snapshot head and the 2 tail records", recs)
	}
	if prev, err := readLog(prevPath(path)); err != nil || len(prev.recs) != 5 {
		t.Fatalf("the rotated generation holds %v (%v), want the whole old log", prev, err)
	}

	// Compacting at the end leaves the snapshot run alone, still working.
	tail, run = j2.growth()
	compactTo(j2, tail+run, mustFrames(t, head))
	if tail, run := j2.growth(); tail != 0 || run != int64(len(mustFrames(t, head))) {
		t.Fatalf("fully compacted journal has %d bytes past a %d-byte run", tail, run)
	}
}

// TestDecodeJournalPrefixStability is the replay contract in miniature:
// re-decoding the good prefix reproduces exactly the same records, so a
// crash between checkpoint and truncation (both files readable) cannot
// diverge from a clean shutdown.
func TestDecodeJournalPrefixStability(t *testing.T) {
	data := mustFrames(t,
		JournalRecord{T: recSubmit, JobID: "a", Job: &Job{ID: "a", Spec: specN(1), State: JobQueued}},
		JournalRecord{T: recProgress, JobID: "a", Progress: &Progress{Done: 1, Total: 2}},
	)
	data = append(data, 0xde, 0xad) // torn tail
	recs, good := decodeJournal(data)
	recs2, good2 := decodeJournal(data[:good])
	if good2 != good || !reflect.DeepEqual(recs, recs2) {
		t.Fatalf("prefix re-decode diverged: %d/%d records, %d/%d bytes",
			len(recs), len(recs2), good, good2)
	}
}

// FuzzReplayJournal: decodeJournal must never panic, never read past
// the reported good offset, and always yield a stable prefix — whatever
// bytes a crash, bit rot, or an adversarial writer left behind. On the
// same bytes, OpenJournal plus Recover must never panic, must refuse a
// log whose snapshot run is damaged without shortening the file, and
// may cut an intact one only at the end of its readable prefix.
func FuzzReplayJournal(f *testing.F) {
	job := func(id string, state JobState) JournalRecord {
		return JournalRecord{T: recJob, JobID: id, Seq: 3, Job: &Job{ID: id,
			Spec: JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: 64}}, State: state}}
	}
	// run renders a snapshot run whose head counts frames.
	run := func(frames int, recs ...JournalRecord) []byte {
		return mustFrames(f, append([]JournalRecord{{T: recSnapshot, NextID: 2, Frames: frames}}, recs...)...)
	}
	intact := run(2, job("job-0001", JobCompleted), job("job-0002", JobQueued))
	valid := append(append([]byte{}, intact...), mustFrames(f,
		JournalRecord{T: recSubmit, JobID: "job-0003", Seq: 1, NextID: 3,
			Job: &Job{ID: "job-0003", Spec: JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: 64}}, State: JobQueued}},
		JournalRecord{T: recFinish, JobID: "job-0003", Seq: 2, State: JobCompleted,
			Result: &JobResult{Coverage: 1}},
	)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-4])                       // torn tail
	f.Add(flipBit(valid, len(valid)-len(valid)/8))    // tail corruption
	f.Add(flipBit(valid, 0))                          // head length corruption
	f.Add([]byte{})                                   // empty file
	f.Add(make([]byte, 64))                           // all zeros
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	// A frame whose payload is valid JSON but not a record (empty T).
	bogus, _ := json.Marshal(map[string]int{"x": 1})
	frame := make([]byte, 8+len(bogus))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(bogus)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(bogus, castagnoli))
	copy(frame[8:], bogus)
	f.Add(append(append([]byte{}, valid...), frame...))
	// Snapshot runs: intact, cut mid-run, a wrong frame count, duplicate
	// and empty job IDs, an unknown state, a stray generation.
	f.Add(intact)
	f.Add(intact[:len(intact)*2/3])
	f.Add(run(3, job("job-0001", JobCompleted), job("job-0002", JobQueued)))
	f.Add(run(2, job("job-0001", JobCompleted), job("job-0001", JobQueued)))
	f.Add(run(1, job("", JobQueued)))
	f.Add(run(1, job("job-0001", "lost")))
	f.Add(run(1, JournalRecord{T: recGaGen, JobID: "job-0001", Ga: &GaGenRecord{}}))
	// Files that were never a log: JSON and a text checksum trailer.
	f.Add([]byte("{}"))
	f.Add([]byte("#crc32c=00000000\n"))
	// A bit flipped inside an intact snapshot run.
	f.Add(flipBit(intact, len(intact)/2))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := decodeJournal(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
		recs2, good2 := decodeJournal(data[:good])
		if good2 != good || len(recs2) != len(recs) {
			t.Fatalf("prefix not stable: %d bytes/%d recs, re-decode %d bytes/%d recs",
				good, len(recs), good2, len(recs2))
		}
		for i := range recs {
			if recs[i].T == "" {
				t.Fatalf("record %d has empty type", i)
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		img, perr := parseLog(data)

		j, recs3, err := OpenJournal(path)
		switch {
		case len(data) == 0:
			if err != nil {
				t.Fatalf("empty file: %v", err)
			}
		case perr != nil:
			// A damaged run with no .prev to salvage: refused, untouched.
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("damaged snapshot run (%v) opened with err %v", perr, err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(data)) {
				t.Fatalf("damaged %d-byte log is now %d bytes (err %v)", len(data), fi.Size(), err)
			}
			return
		default:
			if err != nil {
				t.Fatalf("intact snapshot run refused: %v", err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != img.good {
				t.Fatalf("truncated file is %d bytes (err %v), want %d", fi.Size(), err, img.good)
			}
			if len(recs3) > len(img.recs) || len(img.recs)-len(recs3) > 1 {
				t.Fatalf("OpenJournal replayed %d records, the log holds %d", len(recs3), len(img.recs))
			}
		}
		defer j.Close()
		q := NewQueue(QueueOptions{Journal: j, Exec: instantExec})
		if err := q.Recover("", recs3); err != nil {
			t.Fatal(err)
		}
	})
}

// replayRecords is the journal from one deterministic little campaign:
// two submits, one finished, one mid-run at the crash.
func replayRecords() []JournalRecord {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	return []JournalRecord{
		{T: recSubmit, JobID: "job-0001", Seq: 1, At: at, NextID: 1,
			Job: &Job{ID: "job-0001", Spec: specN(100), State: JobQueued, Created: at}},
		{T: recSubmit, JobID: "job-0002", Seq: 1, At: at, NextID: 2,
			Job: &Job{ID: "job-0002", Spec: specN(200), State: JobQueued, Created: at}},
		{T: recState, JobID: "job-0001", Seq: 2, At: at.Add(time.Second), State: JobRunning, Attempts: 1},
		{T: recProgress, JobID: "job-0001", Seq: 3, Progress: &Progress{Done: 100, Total: 100, Coverage: 0.5}},
		{T: recFinish, JobID: "job-0001", Seq: 4, At: at.Add(2 * time.Second), State: JobCompleted,
			Result: &JobResult{Coverage: 0.5, Cycles: 100}, Attempts: 1},
		{T: recState, JobID: "job-0002", Seq: 2, At: at.Add(3 * time.Second), State: JobRunning, Attempts: 1},
		{T: recProgress, JobID: "job-0002", Seq: 3, Progress: &Progress{Done: 40, Total: 200}},
	}
}

func recoverInto(t *testing.T, recs []JournalRecord) []Job {
	t.Helper()
	q := NewQueue(QueueOptions{
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		},
	})
	if err := q.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	return q.Jobs()
}

// TestReplayIdempotence: applying a journal twice (the overlap a crash
// between checkpoint write and journal truncation produces) must equal
// applying it once, record for record and job for job.
func TestReplayIdempotence(t *testing.T) {
	recs := replayRecords()
	once := recoverInto(t, recs)
	twice := recoverInto(t, append(append([]JournalRecord{}, recs...), recs...))
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("replaying twice diverged:\nonce  %+v\ntwice %+v", once, twice)
	}

	// And the replayed state itself is what the records say: job-0001
	// keeps its exactly-once result, job-0002 goes back to queued.
	if len(once) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(once))
	}
	j1, j2 := once[0], once[1]
	if j1.State != JobCompleted || j1.Result == nil || j1.Result.Cycles != 100 {
		t.Fatalf("finished job replayed as %+v", j1)
	}
	if j2.State != JobQueued || j2.Attempts != 1 || j2.Progress.Done != 40 {
		t.Fatalf("mid-run job replayed as %+v", j2)
	}
}

// TestReplayRunAheadOfSubmit: Submit hands a job to the workers before
// it appends the submit record, so a job quicker than that fsync has
// its start and finish journaled first. Replay must still end with the
// job finished, once or twice over.
func TestReplayRunAheadOfSubmit(t *testing.T) {
	recs := replayRecords()[:5]
	// job-0001's start, progress and finish, then the two submits.
	early := append(append([]JournalRecord{}, recs[2:]...), recs[:2]...)
	want := recoverInto(t, recs)
	if got := recoverInto(t, early); !reflect.DeepEqual(got, want) {
		t.Fatalf("run journaled ahead of its submit replays as\n%+v\nwant\n%+v", got, want)
	}
	if want[0].State != JobCompleted || want[0].Result == nil || want[0].Attempts != 1 {
		t.Fatalf("reference replay left job-0001 as %+v", want[0])
	}
	if got := recoverInto(t, append(append([]JournalRecord{}, early...), early...)); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed twice:\n%+v\nwant\n%+v", got, want)
	}
}

// TestRecoverCheckpointJournalOverlap is what every compaction writes:
// a snapshot run followed by records it may already cover. Recovering
// from a snapshot plus the full journal must equal recovering from the
// journal alone.
func TestRecoverCheckpointJournalOverlap(t *testing.T) {
	recs := replayRecords()
	path := filepath.Join(t.TempDir(), "journal.wal")

	// Write the snapshot run by recovering the prefix (through
	// job-0001's finish) and compacting that queue, then append the
	// whole journal behind it.
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q1 := NewQueue(QueueOptions{Journal: j, Exec: instantExec})
	if err := q1.Recover("", recs[:5]); err != nil {
		t.Fatal(err)
	}
	if err := q1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := recoverLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := recoverInto(t, recs); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot+journal overlap diverged from journal-only:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRecoverSeedsEventRing: after recovery an SSE subscriber with a
// pre-crash Last-Event-ID gets the journaled tail replayed under the
// original sequence numbers, and live numbering restarts past the slack
// gap so no seq is ever reused.
func TestRecoverSeedsEventRing(t *testing.T) {
	recs := replayRecords()
	events := NewJobEventBroker()
	q := NewQueue(QueueOptions{Events: events,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		}})
	if err := q.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	replay, _, cancel := events.Subscribe("job-0001", 2)
	defer cancel()
	if len(replay) != 2 || replay[0].Seq != 3 || replay[1].Seq != 4 {
		t.Fatalf("Last-Event-ID=2 replay %+v, want seqs 3,4", replay)
	}
	if replay[1].Result == nil || replay[1].Result.Cycles != 100 {
		t.Fatalf("seeded result event %+v lost its payload", replay[1])
	}
	// Live numbering resumes beyond the recovered max plus slack.
	seq := events.Publish(api.JobEvent{JobID: "job-0001", Type: api.JobEventState, State: JobQueued})
	if seq <= 4+journalSeqSlack {
		t.Fatalf("post-recovery publish got seq %d, want > %d", seq, 4+journalSeqSlack)
	}
}

// TestSubmitIdempotency: a duplicate submit_id returns the original job
// instead of enqueueing a second campaign — live and across recovery.
func TestSubmitIdempotency(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &JobResult{Coverage: 1}, nil
	}
	q := NewQueue(QueueOptions{Workers: 1, Exec: exec})
	q.Start()
	spec := specN(100)
	spec.SubmitID = "cli/retry-abc"
	first, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate submit created %s, want %s", dup.ID, first.ID)
	}
	other := specN(100)
	other.SubmitID = "cli/retry-def"
	second, err := q.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("distinct submit_id deduplicated")
	}
	if jobs := q.Jobs(); len(jobs) != 2 {
		t.Fatalf("%d jobs enqueued, want 2", len(jobs))
	}
	close(block)

	// The dedup index survives journal replay: a client retrying its
	// submit against the restarted coordinator still gets the same job.
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	recs := []JournalRecord{{T: recSubmit, JobID: "job-0001", Seq: 1, NextID: 1,
		Job: &Job{ID: "job-0001", Spec: spec, State: JobQueued, Created: at}}}
	q2 := NewQueue(QueueOptions{Exec: exec})
	if err := q2.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	again, err := q2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != "job-0001" {
		t.Fatalf("post-recovery duplicate submit created %s, want job-0001", again.ID)
	}
}

// TestQueueJournalsLifecycle wires a real journal into a running queue
// and checks the full lifecycle lands on disk: submit (sync), start,
// progress, finish — enough for a cold replay to reconstruct the job
// with its result.
func TestQueueJournalsLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{Workers: 1, Journal: j,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			update(Progress{Done: 1, Total: 2})
			return &JobResult{Coverage: 0.9, Cycles: spec.Vectors.Count}, nil
		}})
	q.Start()
	job, err := q.Submit(specN(64))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, job.ID, JobCompleted)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Drain compacted the log; the generation it rotated to .prev is the
	// journal the queue wrote while it ran.
	prev, err := readLog(prevPath(path))
	if err != nil {
		t.Fatal(err)
	}
	recs := prev.recs
	types := map[string]int{}
	for _, r := range recs {
		types[r.T]++
	}
	if types[recSubmit] != 1 || types[recState] == 0 || types[recFinish] != 1 {
		t.Fatalf("journal types %v, want 1 submit, ≥1 state, 1 finish", types)
	}
	q2 := NewQueue(QueueOptions{Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		return &JobResult{}, nil
	}})
	if err := q2.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	got, ok := q2.Get(job.ID)
	if !ok || got.State != JobCompleted || got.Result == nil || got.Result.Cycles != 64 {
		t.Fatalf("cold replay reconstructed %+v", got)
	}
}

// TestJournalCheckpointTruncates: a compaction with nothing journaled
// since its mark shrinks the log to the snapshot run alone, and that run
// reconstructs the finished job.
func TestJournalCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	j, _, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	q := NewQueue(QueueOptions{Workers: 1, Journal: j,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{Coverage: 1}, nil
		}})
	q.Start()
	job, _ := q.Submit(specN(32))
	waitState(t, q, job.ID, JobCompleted)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if tail, _ := j.growth(); tail != 0 {
		t.Fatalf("journal holds %d bytes past its snapshot run after a compaction", tail)
	}
	img, err := readLog(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if img.run != img.size || len(img.recs) != 2 {
		t.Fatalf("log holds %d records over %d bytes past a %d-byte run", len(img.recs), img.size, img.run)
	}
	// And the snapshot run alone reconstructs the finished job.
	q2 := NewQueue(QueueOptions{Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		return &JobResult{}, nil
	}})
	if err := q2.Recover("", img.recs); err != nil {
		t.Fatal(err)
	}
	if got, ok := q2.Get(job.ID); !ok || got.State != JobCompleted {
		t.Fatalf("snapshot-only recovery got %+v", got)
	}
}
