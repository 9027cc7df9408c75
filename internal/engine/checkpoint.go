package engine

import (
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/obs"
)

var (
	ctrCheckpointWrites   = obs.Default().CounterFamily("sbst_checkpoint_writes_total", "Queue compactions: snapshot runs written to the journal (size-triggered compactions, drains, and finishes after the journal failed).").Counter()
	ctrCheckpointErrors   = obs.Default().CounterFamily("sbst_checkpoint_errors_total", "Queue compactions that failed.").Counter()
	gaugeCheckpointBytes  = obs.Default().GaugeFamily("sbst_checkpoint_bytes", "Size of the last snapshot run written.").Gauge()
	histCheckpointSeconds = obs.Default().HistogramFamily("sbst_checkpoint_seconds", "Wall time of one compaction.", obs.DefBuckets).Histogram()
)

// compactionFloor is the least journal growth worth a compaction. The
// compactor runs when the records past the log's snapshot run reach
// max(compactionFloor, size of the run): the floor keeps a young queue
// from rewriting a small file every few jobs, and the proportional half
// keeps the bytes written by compaction within ~2x the bytes journaled
// however long the history grows (the AOF-rewrite / LSM size-ratio
// rule). It also bounds what a crash has to replay to that many bytes
// of records.
const compactionFloor = 1 << 20

// Steps reported to QueueOptions.compactHook. The compaction steps fire
// in this order, each after the action it names; stepFinish fires from
// a queue worker.
const (
	stepMark     = "mark"     // log size taken
	stepSnapshot = "snapshot" // queue state copied under q.mu
	stepWritten  = "written"  // snapshot run written to the temp file
	stepSynced   = "synced"   // newer records appended behind it, temp fsynced
	stepRotated  = "rotated"  // live log moved to .prev
	stepRenamed  = "renamed"  // temp renamed into place, directory fsynced
	stepFinish   = "finish"   // a job's synced finish record appended
)

// Checkpoint compacts the queue's log (see journal.go); on a queue
// without a Journal, which keeps no durable state, it is a no-op. It is
// single-flight — the compactor, Drain and direct callers share one
// mutex — because a mark is an offset into the log before the swap, and
// two interleaved sequences could rename the older snapshot into place
// last: either way acknowledged finishes would drop out of the
// recoverable state.
func (q *Queue) Checkpoint() error {
	if q.opts.Journal == nil {
		return nil
	}
	q.compactMu.Lock()
	defer q.compactMu.Unlock()
	start := time.Now()
	n, err := q.compact()
	if err != nil {
		ctrCheckpointErrors.Add(1)
		return err
	}
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

// compactor is the one goroutine that compacts the log of a journaled
// queue while it runs. Finishes nudge it; it compacts when the records
// past the snapshot run have reached max(floor, run) bytes, and exits
// with the workers when Drain closes q.stop (Drain compacts once more
// itself).
func (q *Queue) compactor() {
	defer q.wg.Done()
	for {
		select {
		case <-q.stop:
			return
		case <-q.compactKick:
		}
		if tail, run := q.opts.Journal.growth(); tail >= max(q.opts.compactFloor, run) {
			q.checkpointOrReport()
		}
	}
}

func (q *Queue) hook(step, jobID string) {
	if q.opts.compactHook != nil {
		q.opts.compactHook(step, jobID)
	}
}

// compact is the body of Checkpoint; it returns the size of the
// snapshot run it wrote. Caller holds q.compactMu.
func (q *Queue) compact() (int, error) {
	j := q.opts.Journal
	// Take the mark BEFORE snapshotting: every record below it was
	// appended after its mutation landed in q.jobs, so the snapshot
	// taken next covers it. Records past the mark follow the snapshot
	// into the new log and replay idempotently on top of it.
	tail, base := j.growth()
	mark := tail + base
	q.hook(stepMark, "")
	run, err := q.snapshotRun()
	if err != nil {
		return 0, err
	}
	q.hook(stepSnapshot, "")
	// Chaos point: a compaction that fails outright (error), or whose
	// rename lands with its data torn (shortwrite: the live slot holds
	// half the run after the old log rotated to .prev, where the journal
	// appends on and recovery salvages it).
	if f := chaos.Maybe("engine.checkpoint.write"); f != nil {
		if ierr := f.Err(); ierr != nil {
			return 0, fmt.Errorf("engine: write log: %w", ierr)
		}
		if torn, ok := f.ShortWrite(run); ok {
			j.mu.Lock()
			j.cur = tearLog(j.path, j.cur, torn)
			j.mu.Unlock()
			return len(run), nil
		}
	}
	tmp, err := createTemp(j.path, run)
	if err != nil {
		return 0, err
	}
	q.hook(stepWritten, "")
	return len(run), j.compact(tmp, mark, int64(len(run)), func(step string) { q.hook(step, "") })
}

// snapshotRun encodes the queue state as a snapshot run: the head with
// the ID counter, then every job in submission order, each followed by
// its ga_search generations. A running job is written as queued, as its
// run does not survive a restart.
func (q *Queue) snapshotRun() ([]byte, error) {
	q.mu.Lock()
	recs := make([]JournalRecord, 1, 1+len(q.order))
	recs[0] = JournalRecord{T: recSnapshot, NextID: q.nextID}
	for _, id := range q.order {
		j := snapshotJob(q.jobs[id])
		if j.State == JobRunning {
			j.State = JobQueued
		}
		recs = append(recs, JournalRecord{T: recJob, JobID: id, Job: &j})
		for i := range q.gaGens[id] {
			recs = append(recs, JournalRecord{T: recGaGen, JobID: id, Ga: &q.gaGens[id][i]})
		}
	}
	q.mu.Unlock()
	recs[0].Frames = len(recs) - 1
	seqs := q.opts.Events.Seqs()
	var run []byte
	for i := range recs {
		if recs[i].T == recJob {
			recs[i].Seq = seqs[recs[i].JobID]
		}
		frame, err := encodeFrame(&recs[i])
		if err != nil {
			return nil, err
		}
		run = append(run, frame...)
	}
	return run, nil
}

// Recover installs the records OpenJournal returned into a fresh queue
// before Start, re-enqueueing every non-terminal job. path is ignored:
// the journal's log is the queue's whole state.
func (q *Queue) Recover(path string, recs []JournalRecord) error {
	q.mu.Lock()
	if q.started || len(q.jobs) > 0 {
		q.mu.Unlock()
		return fmt.Errorf("engine: Recover on a started or non-empty queue")
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

	q.seedEvents(recs)
	return nil
}

// applyRecordLocked replays one log record onto the queue state.
// Idempotent by construction: submits and job frames skip existing IDs,
// everything else is an absolute assignment. Caller holds q.mu.
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
	switch rec.T {
	case recSnapshot:
		return
	case recSubmit, recJob:
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		if _, exists := q.jobs[rec.Job.ID]; exists {
			return
		}
		j := *rec.Job
		// The same kind-safety validator that gates submission gates
		// recovery: a record whose spec no longer validates (written by a
		// version with laxer rules) must not resurrect as a runnable job.
		if err := j.Spec.Validate(); err != nil {
			obs.Emit(q.opts.Sink, obs.Event{Type: obs.EventPhase, Name: "queue", Fields: map[string]any{
				"event": "recovered_job_invalid", "source": rec.T, "job": j.ID, "error": err.Error()}})
			return
		}
		if j.State == JobRunning {
			j.State = JobQueued
		}
		// Recovered jobs re-plan their units on the next run.
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
		// Contiguous-append only: a record the snapshot already holds
		// replays as a no-op (idempotence), and a gap means the history
		// is unusable past this point anyway.
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

// seedEvents rebuilds the SSE broker's per-job state after recovery:
// journaled events are re-seeded with their original sequence numbers,
// then every job's numbering is advanced past both the high-water mark
// its job frame carries and a slack gap covering async records lost in
// the crash, so no sequence number is ever reused for a different
// event.
func (q *Queue) seedEvents(recs []JournalRecord) {
	if q.opts.Events == nil {
		return
	}
	last := make(map[string]int64)
	for i := range recs {
		rec := &recs[i]
		if rec.Seq <= 0 || rec.JobID == "" {
			continue
		}
		if rec.Seq > last[rec.JobID] {
			last[rec.JobID] = rec.Seq
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
			// A job frame carries a high-water mark, not an event.
			continue
		}
		q.opts.Events.Seed(ev)
	}
	for id, seq := range last {
		q.opts.Events.Advance(id, seq+journalSeqSlack)
	}
}
