package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// checkpointVersion guards the on-disk schema; bump on incompatible
// changes so a stale file fails loudly instead of resuming garbage.
// Version 2 added the crc32c integrity trailer; version 3 records each
// running job's distributed lease state (job.dist) and moves the wire
// schema to internal/api.
const checkpointVersion = 3

// crcPrefix introduces the integrity trailer: the final line of a
// checkpoint is "#crc32c=%08x\n" over every byte before it. JSON has no
// comment syntax, so the loader strips the trailer before parsing; the
// '#' makes the file obviously annotated to a human reader.
const crcPrefix = "#crc32c="

// ErrCheckpointCorrupt reports a checkpoint file that exists but cannot
// be trusted: bad checksum, torn write, unparsable JSON, or inconsistent
// job records. Restore salvages the previous checkpoint when possible
// and wraps this error only when no generation is loadable.
var ErrCheckpointCorrupt = errors.New("engine: checkpoint corrupt")

var (
	ctrCheckpointSalvaged = obs.Default().Counter("queue.checkpoint_salvaged")
	ctrCheckpointWrites   = obs.Default().CounterFamily("sbst_checkpoint_writes_total", "Queue snapshots written (journal compactions, drains, and every finish of a journal-less queue).").Counter()
	ctrCheckpointErrors   = obs.Default().CounterFamily("sbst_checkpoint_errors_total", "Queue snapshot writes that failed.").Counter()
	gaugeCheckpointBytes  = obs.Default().GaugeFamily("sbst_checkpoint_bytes", "Size of the last queue snapshot written.").Gauge()
	histCheckpointSeconds = obs.Default().HistogramFamily("sbst_checkpoint_seconds", "Wall time of one snapshot write, journal truncation included.", obs.DefBuckets).Histogram()
)

// compactionFloor is the least journal growth worth a snapshot rewrite.
// The compactor runs when the journal reaches max(compactionFloor, size
// of the last snapshot): the floor keeps a young queue from rewriting a
// small file every few jobs, and the proportional half keeps the bytes
// written by compaction within ~2x the bytes journaled however long the
// history grows (the AOF-rewrite / LSM size-ratio rule). It also bounds
// what a crash has to replay to that many bytes of records.
const compactionFloor = 1 << 20

// Steps reported to QueueOptions.compactHook. The compaction steps fire
// in this order, each after the action it names; stepFinish fires from
// a queue worker.
const (
	stepMark      = "mark"      // journal mark taken
	stepSnapshot  = "snapshot"  // queue state copied under q.mu
	stepSynced    = "synced"    // temp file written and fsynced
	stepRotated   = "rotated"   // live checkpoint moved to .prev
	stepRenamed   = "renamed"   // temp renamed into place, directory fsynced
	stepTruncated = "truncated" // journal prefix below the mark dropped
	stepFinish    = "finish"    // a job's synced finish record appended
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkpointFile is the JSON state written by Checkpoint: every job in
// submission order plus the ID counter, enough to resume a partially
// completed campaign after a restart. Completed and failed jobs keep
// their results; queued and running jobs are restored as queued and
// re-enqueued.
type checkpointFile struct {
	Version int   `json:"version"`
	NextID  int   `json:"next_id"`
	Jobs    []Job `json:"jobs"`
	// EventSeqs records the last SSE sequence number published per job,
	// so event numbering stays monotonic across a restart even after the
	// journal prefix holding those events was truncated. Additive field;
	// version-3 files without it load fine.
	EventSeqs map[string]int64 `json:"event_seqs,omitempty"`
	// GaGens carries each non-terminal ga_search job's completed
	// generation records. Without this the checkpoint-then-truncate
	// dance would drop a running search's resume data: the journal
	// prefix holding its recGaGen records is truncated the moment any
	// other job's terminal checkpoint lands. Additive field; older
	// files load fine.
	GaGens map[string][]GaGenRecord `json:"ga_gens,omitempty"`
}

// prevPath is the previous-generation checkpoint kept as a salvage
// target: every successful write first rotates the live file aside, so
// a torn or corrupted write loses at most one generation.
func prevPath(path string) string { return path + ".prev" }

// encodeCheckpoint renders the state with the crc32c trailer appended.
func encodeCheckpoint(cp *checkpointFile) ([]byte, error) {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("engine: marshal checkpoint: %w", err)
	}
	data = append(data, '\n')
	sum := crc32.Checksum(data, castagnoli)
	return append(data, []byte(fmt.Sprintf("%s%08x\n", crcPrefix, sum))...), nil
}

// decodeCheckpoint verifies the trailer and the record invariants before
// handing the state back. Every failure wraps ErrCheckpointCorrupt so
// Restore can distinguish "corrupt, try the previous generation" from
// I/O errors.
func decodeCheckpoint(data []byte) (*checkpointFile, error) {
	payload, sumHex, ok := splitTrailer(data)
	if !ok {
		// No trailer. A version-1 file parses as JSON but predates the
		// integrity scheme; report the version mismatch specifically.
		var cp checkpointFile
		if json.Unmarshal(data, &cp) == nil && cp.Version != 0 && cp.Version != checkpointVersion {
			return nil, fmt.Errorf("%w: version %d, want %d", ErrCheckpointCorrupt, cp.Version, checkpointVersion)
		}
		return nil, fmt.Errorf("%w: missing checksum trailer", ErrCheckpointCorrupt)
	}
	var want uint32
	if _, err := fmt.Sscanf(sumHex, "%08x", &want); err != nil {
		return nil, fmt.Errorf("%w: unreadable checksum %q", ErrCheckpointCorrupt, sumHex)
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc32c %08x, trailer says %08x", ErrCheckpointCorrupt, got, want)
	}
	var cp checkpointFile
	if err := json.Unmarshal(payload, &cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCheckpointCorrupt, cp.Version, checkpointVersion)
	}
	seen := make(map[string]bool, len(cp.Jobs))
	for i := range cp.Jobs {
		j := &cp.Jobs[i]
		if j.ID == "" || seen[j.ID] {
			return nil, fmt.Errorf("%w: duplicate or empty job id %q", ErrCheckpointCorrupt, j.ID)
		}
		seen[j.ID] = true
		switch j.State {
		case JobQueued, JobRunning, JobCompleted, JobFailed:
		default:
			return nil, fmt.Errorf("%w: job %s has unknown state %q", ErrCheckpointCorrupt, j.ID, j.State)
		}
	}
	return &cp, nil
}

// splitTrailer separates the payload from the "#crc32c=xxxxxxxx\n"
// final line.
func splitTrailer(data []byte) (payload []byte, sumHex string, ok bool) {
	// The trailer line has fixed length: prefix + 8 hex digits + newline.
	n := len(crcPrefix) + 8 + 1
	if len(data) < n || data[len(data)-1] != '\n' {
		return nil, "", false
	}
	line := data[len(data)-n:]
	if string(line[:len(crcPrefix)]) != crcPrefix {
		return nil, "", false
	}
	return data[:len(data)-n], string(line[len(crcPrefix) : n-1]), true
}

// Checkpoint durably writes the queue state to the configured path:
// temp file in the same directory, fsync, rotate the live file to
// <path>.prev, rename the temp into place, fsync the directory, then
// truncate the journal prefix the snapshot covers. A crash at any point
// leaves either the old generation, the new one, or a detectably torn
// file plus the .prev salvage copy — never a silent mix. A queue
// without a checkpoint path is a no-op.
//
// Checkpoint is single-flight: the compactor, Drain and direct callers
// all run the whole sequence under one mutex. A journal mark is an
// offset into the file as it is now and Truncate rebases the file, so a
// mark taken by one caller before another caller's truncation would cut
// the rebased journal in the wrong place; and with two sequences
// interleaved the older snapshot can be the last one renamed into
// place, beside a journal already truncated for the newer one. Either
// way acknowledged finishes disappear from the recoverable state.
func (q *Queue) Checkpoint() error {
	if q.opts.Checkpoint == "" {
		return nil
	}
	q.compactMu.Lock()
	defer q.compactMu.Unlock()
	start := time.Now()
	n, err := q.writeSnapshot()
	if err != nil {
		ctrCheckpointErrors.Add(1)
		return err
	}
	q.snapshotBytes.Store(int64(n))
	ctrCheckpointWrites.Add(1)
	gaugeCheckpointBytes.Set(float64(n))
	histCheckpointSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// checkpointOrReport is Checkpoint for callers with nobody to return
// the error to: a queue worker after a finish, the compactor.
func (q *Queue) checkpointOrReport() {
	if err := q.Checkpoint(); err != nil {
		obs.Emit(q.opts.Sink, obs.Event{
			Type: obs.EventPhase, Name: "queue",
			Fields: map[string]any{"event": "checkpoint_error", "error": err.Error()},
		})
	}
}

// compactor is the one goroutine that rewrites the snapshot of a
// journaled queue while it runs. Finishes nudge it; it compacts when
// the journal has reached max(floor, last snapshot) bytes, and exits
// with the workers when Drain closes q.stop (Drain writes the final
// snapshot itself).
func (q *Queue) compactor() {
	defer q.wg.Done()
	for {
		select {
		case <-q.stop:
			return
		case <-q.compactKick:
		}
		if q.opts.Journal.Mark() >= max(q.opts.compactFloor, q.snapshotBytes.Load()) {
			q.checkpointOrReport()
		}
	}
}

func (q *Queue) hook(step, jobID string) {
	if q.opts.compactHook != nil {
		q.opts.compactHook(step, jobID)
	}
}

// writeSnapshot is the body of Checkpoint; it returns the size of the
// snapshot it wrote. Caller holds q.compactMu.
func (q *Queue) writeSnapshot() (int, error) {
	// Mark the journal BEFORE snapshotting: every record below the mark
	// was appended after its mutation landed in q.jobs, so the snapshot
	// taken next covers it and the prefix can be truncated once the
	// checkpoint is durable. Records appended after the mark survive
	// truncation and replay idempotently on top of this checkpoint.
	mark := q.opts.Journal.Mark()
	q.hook(stepMark, "")
	q.mu.Lock()
	cp := checkpointFile{Version: checkpointVersion, NextID: q.nextID}
	cp.Jobs = make([]Job, 0, len(q.order))
	for _, id := range q.order {
		j := snapshotJob(q.jobs[id])
		if j.State == JobRunning {
			// A running job serialized mid-flight resumes from scratch
			// (unit results are not persisted), but its lease-pool layout
			// is recorded so operators can see how far the fleet got.
			j.State = JobQueued
			if q.opts.DistState != nil {
				j.Dist = q.opts.DistState(j.ID)
			}
		}
		cp.Jobs = append(cp.Jobs, j)
	}
	if len(q.gaGens) > 0 {
		cp.GaGens = make(map[string][]GaGenRecord, len(q.gaGens))
		for id, gens := range q.gaGens {
			cp.GaGens[id] = append([]GaGenRecord(nil), gens...)
		}
	}
	q.mu.Unlock()
	cp.EventSeqs = q.opts.Events.Seqs()
	q.hook(stepSnapshot, "")

	data, err := encodeCheckpoint(&cp)
	if err != nil {
		return 0, err
	}
	dest := q.opts.Checkpoint
	// Chaos point: a checkpoint write that tears mid-file (shortwrite —
	// the dest ends up truncated, CRC-invalid) or fails outright (error).
	// The rotation below has already preserved .prev by the time a real
	// rename could tear, which is what the injected torn write emulates.
	if f := chaos.Maybe("engine.checkpoint.write"); f != nil {
		if ierr := f.Err(); ierr != nil {
			return 0, fmt.Errorf("engine: write checkpoint: %w", ierr)
		}
		if torn, ok := f.ShortWrite(data); ok {
			rotateCheckpoint(dest)
			_ = os.WriteFile(dest, torn, 0o644)
			return len(data), nil
		}
	}
	dir := filepath.Dir(dest)
	tmp, err := os.CreateTemp(dir, ".sbstd-checkpoint-*")
	if err != nil {
		return 0, fmt.Errorf("engine: checkpoint temp: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("engine: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("engine: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("engine: close checkpoint: %w", err)
	}
	q.hook(stepSynced, "")
	rotateCheckpoint(dest)
	q.hook(stepRotated, "")
	if err := os.Rename(tmp.Name(), dest); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("engine: rename checkpoint: %w", err)
	}
	syncDir(dir)
	q.hook(stepRenamed, "")
	// The checkpoint is durable: the journal prefix it covers is dead
	// weight. Truncation failure is non-fatal — the prefix just replays
	// idempotently next startup.
	if err := q.opts.Journal.Truncate(mark); err != nil {
		obs.Emit(q.opts.Sink, obs.Event{
			Type: obs.EventPhase, Name: "queue",
			Fields: map[string]any{"event": "journal_truncate_error", "error": err.Error()},
		})
	}
	q.hook(stepTruncated, "")
	return len(data), nil
}

// rotateCheckpoint moves the live checkpoint to its .prev slot
// (best-effort: a missing live file just leaves the old .prev).
func rotateCheckpoint(dest string) {
	if _, err := os.Stat(dest); err == nil {
		_ = os.Rename(dest, prevPath(dest))
	}
}

// syncDir fsyncs a directory so the renames within it are durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// Restore loads a checkpoint into a fresh queue, re-enqueueing every
// non-terminal job. Call before Start and before any Submit; restoring
// into a started or non-empty queue is an error.
//
// A corrupt or torn live checkpoint is not fatal: Restore falls back to
// the previous generation (<path>.prev) written by the last successful
// Checkpoint, counting the salvage on queue.checkpoint_salvaged. Only
// when no generation is loadable does it return an error wrapping
// ErrCheckpointCorrupt.
func (q *Queue) Restore(path string) error {
	cp, err := q.loadSalvage(path)
	if err != nil {
		return err
	}
	return q.adopt(cp, nil)
}

// Recover is Restore plus journal replay: it loads the newest loadable
// checkpoint generation (a missing checkpoint is fine — first boot, or
// a crash before the first checkpoint landed) and applies the journal
// records on top. Replay is idempotent, so a journal whose prefix
// overlaps the checkpoint (crash between checkpoint write and journal
// truncation) recovers cleanly. Call before Start with the records
// returned by OpenJournal.
func (q *Queue) Recover(path string, recs []JournalRecord) error {
	var cp *checkpointFile
	if path != "" {
		loaded, err := q.loadSalvage(path)
		if err != nil {
			if !os.IsNotExist(err) {
				return err
			}
		} else {
			cp = loaded
		}
	}
	return q.adopt(cp, recs)
}

// loadSalvage loads a checkpoint, falling back to the .prev generation
// when the live file is corrupt or missing-with-a-prev.
func (q *Queue) loadSalvage(path string) (*checkpointFile, error) {
	cp, mainErr := loadCheckpoint(path)
	if mainErr == nil {
		return cp, nil
	}
	if os.IsNotExist(mainErr) {
		if _, perr := os.Stat(prevPath(path)); perr != nil {
			return nil, mainErr // genuinely no checkpoint: not an error to salvage
		}
	}
	prev, prevErr := loadCheckpoint(prevPath(path))
	if prevErr != nil {
		if errors.Is(mainErr, ErrCheckpointCorrupt) {
			return nil, fmt.Errorf("engine: checkpoint %s unrecoverable (%v; previous: %v): %w",
				path, mainErr, prevErr, ErrCheckpointCorrupt)
		}
		return nil, mainErr
	}
	ctrCheckpointSalvaged.Add(1)
	obs.Emit(q.opts.Sink, obs.Event{
		Type: obs.EventPhase,
		Name: "queue",
		Fields: map[string]any{
			"event":  "checkpoint_salvaged",
			"path":   prevPath(path),
			"reason": mainErr.Error(),
		},
	})
	return prev, nil
}

// adopt installs recovered state into a fresh queue: checkpoint jobs
// first, then journal records replayed in append order, then every
// non-terminal job re-enqueued and the SSE broker seeded so
// Last-Event-ID resume works across the restart.
func (q *Queue) adopt(cp *checkpointFile, recs []JournalRecord) error {
	if cp == nil {
		cp = &checkpointFile{Version: checkpointVersion}
	}
	q.mu.Lock()
	if q.started || len(q.jobs) > 0 {
		q.mu.Unlock()
		return fmt.Errorf("engine: Restore on a started or non-empty queue")
	}
	q.nextID = cp.NextID
	for i := range cp.Jobs {
		j := cp.Jobs[i]
		// The same kind-safety validator that gates submission gates
		// recovery: a checkpoint record whose spec no longer validates
		// (hand-edited file, or written by a version with laxer rules)
		// must not resurrect as a runnable job.
		if err := j.Spec.Validate(); err != nil {
			q.emitInvalidRecovered("checkpoint", j.ID, err)
			continue
		}
		if j.State == JobRunning {
			j.State = JobQueued
		}
		// Restored jobs re-plan their units on the next run; a stale
		// dist snapshot would misreport the new campaign.
		j.Dist = nil
		q.addJobLocked(&j)
	}
	for id, gens := range cp.GaGens {
		if j, ok := q.jobs[id]; ok && j.State != JobCompleted && j.State != JobFailed {
			q.gaGens[id] = append([]GaGenRecord(nil), gens...)
		}
	}
	early := make(map[string][]*JournalRecord)
	for i := range recs {
		q.applyRecordLocked(&recs[i], early)
	}
	if pending := q.counts[JobQueued]; pending > cap(q.work) {
		// Grow the pending buffer so every resumable job fits.
		q.work = make(chan string, pending)
	}
	for _, id := range q.order {
		if q.jobs[id].State == JobQueued {
			q.work <- id
		}
	}
	q.mu.Unlock()

	q.seedEvents(cp.EventSeqs, recs)
	return nil
}

// applyRecordLocked replays one journal record onto the queue state.
// Idempotent by construction: submits skip existing IDs, everything
// else is an absolute assignment. Caller holds q.mu.
//
// early holds records met before their job. Submit makes a job runnable
// before it appends the submit record, so a job quicker than that fsync
// journals its start and finish first; dropping those would re-run a
// job whose finish was acknowledged. They are applied, in order, when
// the submit record arrives.
func (q *Queue) applyRecordLocked(rec *JournalRecord, early map[string][]*JournalRecord) {
	if rec.NextID > q.nextID {
		q.nextID = rec.NextID
	}
	if rec.T == recSubmit {
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		if _, exists := q.jobs[rec.Job.ID]; exists {
			return
		}
		j := *rec.Job
		// Same shared validator as Submit and checkpoint adoption.
		if err := j.Spec.Validate(); err != nil {
			q.emitInvalidRecovered("journal", j.ID, err)
			return
		}
		if j.State == JobRunning {
			j.State = JobQueued
		}
		j.Dist = nil
		q.addJobLocked(&j)
		for _, r := range early[j.ID] {
			q.applyRecordLocked(r, early)
		}
		delete(early, j.ID)
		return
	}
	j, ok := q.jobs[rec.JobID]
	if !ok {
		early[rec.JobID] = append(early[rec.JobID], rec)
		return
	}
	terminal := j.State == JobCompleted || j.State == JobFailed
	switch rec.T {
	case recState:
		if terminal {
			return
		}
		j.Attempts = rec.Attempts
		j.Error = rec.Error
		// A requeue says queued outright. A start says running, but the
		// run itself did not survive the crash; what the record proves is
		// that an attempt started. Either way re-run from queued.
		q.setStateLocked(j, JobQueued)
		if rec.State == JobRunning && !rec.At.IsZero() {
			t := rec.At
			j.Started = &t
		}
	case recProgress:
		if rec.Progress != nil {
			j.Progress = *rec.Progress
		}
	case recGaGen:
		if rec.Ga == nil || terminal {
			return
		}
		// Contiguous-append only: a record already covered by the
		// checkpoint's GaGens replays as a no-op (idempotence), and a
		// gap means the history is unusable past this point anyway.
		if len(q.gaGens[rec.JobID]) == rec.Ga.Gen {
			q.gaGens[rec.JobID] = append(q.gaGens[rec.JobID], *rec.Ga)
		}
	case recFinish:
		delete(q.gaGens, rec.JobID)
		q.setStateLocked(j, rec.State)
		j.Result = rec.Result
		j.Error = rec.Error
		if rec.Attempts > 0 {
			j.Attempts = rec.Attempts
		}
		if !rec.At.IsZero() {
			t := rec.At
			j.Finished = &t
		}
	case recLease:
		// Lease records only feed the SSE ring (seedEvents); the work
		// units themselves are re-planned when the job re-runs.
	}
}

// emitInvalidRecovered reports a recovered job record the shared spec
// validator rejected (dropped rather than resurrected). Caller holds
// q.mu or runs before Start.
func (q *Queue) emitInvalidRecovered(source, id string, err error) {
	obs.Emit(q.opts.Sink, obs.Event{
		Type: obs.EventPhase, Name: "queue",
		Fields: map[string]any{
			"event": "recovered_job_invalid", "source": source,
			"job": id, "error": err.Error(),
		},
	})
}

// seedEvents rebuilds the SSE broker's per-job state after recovery:
// journaled events are re-seeded with their original sequence numbers,
// then every job's numbering is advanced past both the checkpointed
// high-water mark and a slack gap covering async records lost in the
// crash, so no sequence number is ever reused for a different event.
func (q *Queue) seedEvents(cpSeqs map[string]int64, recs []JournalRecord) {
	if q.opts.Events == nil {
		return
	}
	last := make(map[string]int64, len(cpSeqs))
	for id, seq := range cpSeqs {
		last[id] = seq
	}
	for i := range recs {
		rec := &recs[i]
		if rec.Seq <= 0 || rec.JobID == "" {
			continue
		}
		ev := api.JobEvent{Seq: rec.Seq, JobID: rec.JobID}
		q.mu.Lock()
		if j, ok := q.jobs[rec.JobID]; ok {
			ev.TraceID = j.Spec.TraceID
		}
		q.mu.Unlock()
		switch rec.T {
		case recSubmit, recState:
			ev.Type = api.JobEventState
			ev.State = rec.State
			if rec.T == recSubmit {
				ev.State = JobQueued
			}
		case recProgress:
			ev.Type = api.JobEventProgress
			ev.State = JobRunning
			ev.Progress = rec.Progress
		case recFinish:
			ev.Type = api.JobEventResult
			ev.State = rec.State
			ev.Result = rec.Result
			ev.Error = rec.Error
		case recLease:
			ev.Type = api.JobEventLease
			ev.State = JobRunning
			ev.Lease = rec.Lease
		default:
			continue
		}
		q.opts.Events.Seed(ev)
		if rec.Seq > last[rec.JobID] {
			last[rec.JobID] = rec.Seq
		}
	}
	for id, seq := range last {
		q.opts.Events.Advance(id, seq+journalSeqSlack)
	}
}

func loadCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return cp, nil
}
