package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// Queue errors surfaced to submitters.
var (
	// ErrQueueFull reports that the bounded pending buffer is at
	// capacity; the caller should retry later (HTTP 503).
	ErrQueueFull = errors.New("engine: job queue full")
	// ErrDraining reports that the queue has stopped accepting work.
	ErrDraining = errors.New("engine: queue draining")
	// ErrInterrupted is returned by executors whose campaign was cut
	// short by queue shutdown; the job goes back to queued so a
	// recovery re-runs it.
	ErrInterrupted = errors.New("engine: job interrupted by shutdown")
	// ErrTransient marks executor failures worth retrying (flaky
	// environment, injected chaos). Wrap it — the queue classifies with
	// errors.Is and retries with exponential backoff while the job's
	// attempt budget lasts.
	ErrTransient = errors.New("engine: transient job failure")
)

var (
	ctrQueueRetries     = obs.Default().Counter("queue.retries")
	ctrBreakerTrips     = obs.Default().Counter("queue.breaker_trips")
	ctrWatchdogTrips    = obs.Default().Counter("queue.watchdog_trips")
	ctrDeadlineExceeded = obs.Default().Counter("queue.deadline_exceeded")

	famQueueJobs = obs.Default().GaugeFamily("sbst_queue_jobs", "Jobs in the queue, by lifecycle state.", "state")
	queueGauges  = map[JobState]*obs.Gauge{
		JobQueued:    famQueueJobs.Gauge("queued"),
		JobRunning:   famQueueJobs.Gauge("running"),
		JobCompleted: famQueueJobs.Gauge("completed"),
		JobFailed:    famQueueJobs.Gauge("failed"),
	}
	gaugeBreaker = obs.Default().GaugeFamily("sbst_queue_breaker_open", "1 while the consecutive-failure circuit breaker holds workers paused.").Gauge()
)

// progressEventPeriod throttles SSE progress publication per job.
const progressEventPeriod = 100 * time.Millisecond

// Executor runs one job spec to completion. update (never nil) publishes
// progress snapshots; ctx is cancelled when a drain deadline forces
// running jobs to stop, in which case the executor should return
// ErrInterrupted (wrapped or bare). The context also carries the job's
// own deadline (Spec.DeadlineSec / QueueOptions.JobTimeout) and is
// cancelled by the stuck-job watchdog.
type Executor func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error)

// QueueOptions configure NewQueue.
type QueueOptions struct {
	// Workers is the number of concurrent job executors (default 1;
	// each fault-sim job's simulation spends every core on its own).
	Workers int
	// MaxPending bounds the not-yet-running buffer (default 64).
	MaxPending int
	// MaxAttempts is the per-job run budget consumed by retryable
	// failures — panics, ErrTransient errors, watchdog cancellations —
	// before the job fails (default 2: one retry after a first failure).
	MaxAttempts int
	// Exec runs jobs; required.
	Exec Executor
	// Checkpoint is ignored: a queue's durable state is its Journal's
	// log. A snapshot file an older build wrote here opens unchanged
	// with OpenJournal.
	Checkpoint string
	// Sink receives queue lifecycle events (job state transitions).
	Sink obs.Sink

	// JobTimeout bounds every job's wall time unless the spec's own
	// DeadlineSec is tighter. Zero means no queue-wide deadline.
	JobTimeout time.Duration
	// StuckTimeout enables the watchdog: a running job that publishes no
	// progress for this long is cancelled and retried. Zero disables.
	StuckTimeout time.Duration

	// DistState, when set, resolves a job's distributed execution
	// snapshot (work-unit layout, completions, attempt counts) for the
	// HTTP surface. Wire it to LeasePool.SnapshotJob when the queue runs
	// a distributed executor.
	DistState func(jobID string) *api.DistState

	// Events, when set, receives the job event stream served over SSE:
	// state transitions, throttled progress samples, and the terminal
	// result frame. Share one broker with the lease pool and server.
	Events *JobEventBroker

	// Journal, when set, is the queue's log: a write-ahead record for
	// every state transition (submits and terminal transitions fsynced
	// inline, the rest group-committed) behind the snapshot run of its
	// last compaction. A finished job costs only its synced record; a
	// background compactor rewrites the log once the records past the
	// snapshot run have grown to max(1 MiB, the run's size). Open it
	// with OpenJournal and feed the replayed records to Recover before
	// Start.
	Journal *Journal

	// now overrides the clock in tests.
	now func() time.Time
	// retryBase overrides, in tests, the first retry's backoff ceiling
	// (default 50ms); each further attempt doubles it up to
	// queueRetryMax, with jitter drawn from the upper half of the window.
	retryBase time.Duration
	// breakerThreshold and breakerCooldown override, in tests, the
	// consecutive terminal failures that trip the circuit breaker
	// (default 5) and how long workers then pause (default 30s).
	breakerThreshold int
	breakerCooldown  time.Duration
	// traceID overrides trace-ID minting in tests (golden determinism);
	// default obs.NewTraceID.
	traceID func() string
	// compactFloor overrides compactionFloor in tests, so that a short
	// run compacts more than once.
	compactFloor int64
	// compactHook, when set in tests, is called after each step of a
	// compaction (the step* names, job "") on the goroutine running it,
	// and with stepFinish and the job's ID once that job's synced finish
	// record has been appended.
	compactHook func(step, jobID string)
}

// runningJob is the queue's handle on an in-flight execution: the lever
// to cancel it and the progress heartbeat the watchdog reads.
type runningJob struct {
	cancel       context.CancelFunc
	lastProgress atomic.Int64 // UnixNano of the last update callback
	lastEvent    atomic.Int64 // UnixNano of the last published progress event
	stuck        atomic.Bool  // set by the watchdog before cancelling
	injected     bool         // chaos queue.job.cancel armed for this run
}

func (rj *runningJob) touch() { rj.lastProgress.Store(time.Now().UnixNano()) }

// Queue is a bounded in-process job queue with a worker pool, graceful
// degradation guardrails (exponential-backoff retries, per-job
// deadlines, a consecutive-failure circuit breaker, a stuck-job
// watchdog) and resume from its log. All exported methods are safe for
// concurrent use.
type Queue struct {
	opts QueueOptions

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int
	// counts is the number of jobs in each state, adjusted at every
	// transition (addJobLocked, setStateLocked) so that neither Counts
	// nor the sbst_queue_jobs gauges ever rescan q.jobs.
	counts map[JobState]int
	// submitIDs maps client-supplied idempotency keys to job IDs so a
	// re-submitted spec (client retry across a coordinator restart) is
	// served the original job instead of minting a duplicate.
	submitIDs map[string]string

	running map[string]*runningJob
	timers  map[string]*time.Timer
	// gaGens holds each running ga_search job's journaled generation
	// records, replayed into the executor on (re)start so a search
	// resumes from its last completed generation. Populated by
	// recordGaGen and by recovery (the log's ga_gen records); cleared on
	// the job's terminal transition.
	gaGens map[string][]GaGenRecord

	failStreak  int       // consecutive terminal failures, guarded by mu
	breakerOpen time.Time // workers pause until this instant, guarded by mu
	rng         *rand.Rand

	work     chan string
	stop     chan struct{}
	wg       sync.WaitGroup
	draining bool
	started  bool

	jobCtx    context.Context
	jobCancel context.CancelFunc

	// compactMu makes Checkpoint single-flight; see there.
	compactMu sync.Mutex
	// compactKick wakes the compactor after a finish. One slot: a nudge
	// is only ever "look at the journal size again", so a pending one
	// stands for any number and the finish path never blocks on it.
	compactKick chan struct{}
}

// NewQueue builds a queue; call Start (after an optional Recover) to
// launch the worker pool.
func NewQueue(opts QueueOptions) *Queue {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 64
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 2
	}
	if opts.retryBase <= 0 {
		opts.retryBase = 50 * time.Millisecond
	}
	if opts.breakerThreshold <= 0 {
		opts.breakerThreshold = 5
	}
	if opts.breakerCooldown <= 0 {
		opts.breakerCooldown = 30 * time.Second
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	if opts.traceID == nil {
		opts.traceID = obs.NewTraceID
	}
	if opts.compactFloor <= 0 {
		opts.compactFloor = compactionFloor
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Queue{
		opts:      opts,
		jobs:      make(map[string]*Job),
		counts:    make(map[JobState]int, 4),
		submitIDs: make(map[string]string),
		running:   make(map[string]*runningJob),
		timers:    make(map[string]*time.Timer),
		gaGens:    make(map[string][]GaGenRecord),
		rng:       rand.New(rand.NewSource(1)),
		work:      make(chan string, opts.MaxPending),
		stop:      make(chan struct{}),
		jobCtx:    ctx,
		jobCancel: cancel,

		compactKick: make(chan struct{}, 1),
	}
}

// Start launches the worker pool, the watchdog when StuckTimeout is set
// and the compactor when a Journal is wired. It is a no-op when already
// started.
func (q *Queue) Start() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.started || q.draining {
		return
	}
	q.started = true
	for i := 0; i < q.opts.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	if q.opts.StuckTimeout > 0 {
		q.wg.Add(1)
		go q.watchdog()
	}
	if q.opts.Journal != nil {
		q.wg.Add(1)
		go q.compactor()
	}
}

// Submit validates and enqueues a job, returning a snapshot of the
// queued entry. It fails fast with ErrDraining after a drain began and
// ErrQueueFull when the pending buffer is at capacity. A spec carrying
// a SubmitID the queue has already accepted is served idempotently: the
// existing job's snapshot comes back instead of a duplicate enqueue —
// the contract that lets clients retry submits across a coordinator
// crash without double-running campaigns.
func (q *Queue) Submit(spec JobSpec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	if err := validateSpecDesigns(spec); err != nil {
		return Job{}, err
	}
	q.mu.Lock()
	if spec.SubmitID != "" {
		if id, ok := q.submitIDs[spec.SubmitID]; ok {
			snap := snapshotJob(q.jobs[id])
			q.fillDistLocked(&snap)
			q.mu.Unlock()
			return snap, nil
		}
	}
	if q.draining {
		q.mu.Unlock()
		return Job{}, ErrDraining
	}
	q.nextID++
	if spec.TraceID == "" {
		// Mint the campaign trace ID here, at the top of the funnel:
		// every span and event this job produces — queue, lease pool,
		// workers — carries it from now on.
		spec.TraceID = q.opts.traceID()
	}
	j := &Job{
		ID:      fmt.Sprintf("job-%04d", q.nextID),
		Spec:    spec,
		State:   JobQueued,
		Created: q.opts.now().UTC(),
	}
	select {
	case q.work <- j.ID:
	default:
		q.nextID--
		q.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	q.addJobLocked(j)
	nextID := q.nextID
	snap := snapshotJob(j)
	q.mu.Unlock()
	q.emit(snap, "submitted")
	seq := q.publishState(snap)
	// Journal the accepted submit durably before acking it to the
	// client: a kill -9 one instruction after this return must still
	// know the job exists.
	jsnap := snap
	q.journal(JournalRecord{
		T: recSubmit, JobID: snap.ID, Seq: seq, At: snap.Created,
		NextID: nextID, Job: &jsnap, State: JobQueued,
	}, true)
	return snap, nil
}

// addJobLocked installs a job the queue has not seen before — submitted
// or recovered — in its current state. Caller holds q.mu.
func (q *Queue) addJobLocked(j *Job) {
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	// First writer wins: an idempotency key can only ever map to one job.
	if key := j.Spec.SubmitID; key != "" {
		if _, taken := q.submitIDs[key]; !taken {
			q.submitIDs[key] = j.ID
		}
	}
	q.countLocked(j.State, +1)
}

// setStateLocked is the only way a job already in the queue changes
// state, which is what keeps q.counts equal to a recount. Caller holds
// q.mu.
func (q *Queue) setStateLocked(j *Job, to JobState) {
	q.countLocked(j.State, -1)
	j.State = to
	q.countLocked(to, +1)
}

// countLocked adjusts one state's count and its gauge. Caller holds
// q.mu. A state the gauge family does not name (replayed from a record
// nothing validated) is counted but has no gauge.
func (q *Queue) countLocked(s JobState, delta int) {
	q.counts[s] += delta
	queueGauges[s].Set(float64(q.counts[s]))
}

// journal appends a write-ahead record and reports whether the record
// is in the journal. Failures are counted and reported, not propagated:
// journal trouble must not fail the queue's hot path, it only narrows
// the recovery window back to the last compaction.
func (q *Queue) journal(rec JournalRecord, sync bool) bool {
	if q.opts.Journal == nil {
		return false
	}
	if err := q.opts.Journal.Append(rec, sync); err != nil {
		obs.Emit(q.opts.Sink, obs.Event{
			Type: obs.EventPhase, Name: "queue",
			Fields: map[string]any{"event": "journal_error", "error": err.Error()},
		})
		return false
	}
	return true
}

// recordGaGen durably records one completed ga_search generation: the
// in-memory mirror first (so a compaction taken between the two always
// covers what the journal is about to say), then a synced journal
// append — the generation a client saw progress past must survive any
// crash from here on. Only contiguous generations are accepted; a
// stale executor racing a restart cannot corrupt the history.
func (q *Queue) recordGaGen(id string, rec GaGenRecord) {
	q.mu.Lock()
	if len(q.gaGens[id]) != rec.Gen {
		q.mu.Unlock()
		return
	}
	q.gaGens[id] = append(q.gaGens[id], rec)
	q.mu.Unlock()
	r := rec
	q.journal(JournalRecord{T: recGaGen, JobID: id, Ga: &r}, true)
}

// publishState emits a lifecycle JobEvent (terminal states publish a
// result frame instead, via publishTerminal), returning the assigned
// SSE sequence number for the journal.
func (q *Queue) publishState(j Job) int64 {
	return q.opts.Events.Publish(api.JobEvent{
		Type: api.JobEventState, JobID: j.ID, TraceID: j.Spec.TraceID, State: j.State,
	})
}

// publishTerminal emits the stream-closing result frame.
func (q *Queue) publishTerminal(j Job) int64 {
	return q.opts.Events.Publish(api.JobEvent{
		Type: api.JobEventResult, JobID: j.ID, TraceID: j.Spec.TraceID,
		State: j.State, Result: j.Result, Error: j.Error,
	})
}

// Get returns a snapshot of one job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	snap := snapshotJob(j)
	q.fillDistLocked(&snap)
	return snap, true
}

// fillDistLocked attaches the live distributed-execution snapshot to a
// running job's copy. Caller holds q.mu; the DistState hook takes only
// the lease pool's own lock (a leaf in the lock order).
func (q *Queue) fillDistLocked(j *Job) {
	if q.opts.DistState != nil && j.State == JobRunning {
		j.Dist = q.opts.DistState(j.ID)
	}
}

// Jobs returns snapshots of every job in submission order.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		snap := snapshotJob(q.jobs[id])
		q.fillDistLocked(&snap)
		out = append(out, snap)
	}
	return out
}

// Counts reports queue occupancy by state; states holding no job are
// left out.
func (q *Queue) Counts() map[JobState]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	counts := make(map[JobState]int, len(q.counts))
	for s, n := range q.counts {
		if n != 0 {
			counts[s] = n
		}
	}
	return counts
}

// Draining reports whether the queue has stopped accepting work.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Drain stops accepting submissions, lets running jobs finish and the
// compactor exit, then compacts once more. If ctx expires first,
// running jobs are cancelled (they stop at the next segment boundary
// and return to the queued state) and the snapshot still captures them
// for resume. Jobs sitting out a retry backoff stay queued and are
// likewise captured.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.stop)
		for id, t := range q.timers {
			t.Stop()
			delete(q.timers, id)
		}
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		q.jobCancel()
		<-done
		err = ctx.Err()
	}
	if cerr := q.Checkpoint(); err == nil {
		err = cerr
	}
	return err
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		// Drain takes priority over pending work: queued jobs stay
		// queued (and in Drain's snapshot) rather than starting
		// mid-shutdown.
		select {
		case <-q.stop:
			return
		default:
		}
		select {
		case <-q.stop:
			return
		case id := <-q.work:
			if !q.breakerWait() {
				// Stopped while the breaker was open; the job is still
				// JobQueued and Drain's snapshot captures it.
				return
			}
			q.run(id)
		}
	}
}

// breakerWait blocks while the circuit breaker is open. It returns
// false when the queue stops first.
func (q *Queue) breakerWait() bool {
	for {
		q.mu.Lock()
		wait := q.breakerOpen.Sub(q.opts.now())
		q.mu.Unlock()
		if wait <= 0 {
			gaugeBreaker.Set(0)
			return true
		}
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		select {
		case <-q.stop:
			return false
		case <-time.After(wait):
		}
	}
}

// jobContext derives the per-job execution context: the queue-wide
// JobTimeout unless the spec's own DeadlineSec is tighter.
func (q *Queue) jobContext(spec JobSpec) (context.Context, context.CancelFunc) {
	timeout := q.opts.JobTimeout
	if spec.DeadlineSec > 0 {
		d := time.Duration(spec.DeadlineSec * float64(time.Second))
		if timeout <= 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		return context.WithTimeout(q.jobCtx, timeout)
	}
	return context.WithCancel(q.jobCtx)
}

func (q *Queue) run(id string) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return
	}
	now := q.opts.now().UTC()
	q.setStateLocked(j, JobRunning)
	j.Attempts++
	j.Started = &now
	j.Error = ""
	jctx, cancel := q.jobContext(j.Spec)
	jctx = withJobID(jctx, id)
	if j.Spec.Kind == JobGaSearch {
		// Hand the GA executor its journaled generations and a durable
		// append channel, so a restarted (or retried) search fast-forwards
		// instead of re-evaluating.
		jctx = withGaJournal(jctx, &gaJournal{
			replay: append([]GaGenRecord(nil), q.gaGens[id]...),
			record: func(rec GaGenRecord) { q.recordGaGen(id, rec) },
		})
	}
	rj := &runningJob{cancel: cancel}
	rj.touch()
	// Chaos point: a job whose context is yanked mid-flight for no
	// visible reason (operator kill, orphaned deadline). Classified as
	// retryable, like a watchdog trip.
	if f := chaos.Maybe("queue.job.cancel"); f != nil {
		rj.injected = true
		f.Cancel(cancel)
	}
	q.running[id] = rj
	snap := snapshotJob(j)
	q.mu.Unlock()
	q.emit(snap, "started")
	seq := q.publishState(snap)
	q.journal(JournalRecord{
		T: recState, JobID: id, Seq: seq, At: now,
		State: JobRunning, Attempts: snap.Attempts,
	}, false)

	trace := snap.Spec.TraceID
	update := func(p Progress) {
		rj.touch()
		q.mu.Lock()
		j.Progress = p
		q.mu.Unlock()
		// Feed the SSE stream from the same rollup, throttled per job;
		// the final sample (Done == Total) always goes out so followers
		// see 100% before the result frame.
		now := time.Now().UnixNano()
		last := rj.lastEvent.Load()
		if now-last >= int64(progressEventPeriod) || (p.Total > 0 && p.Done >= p.Total) {
			if rj.lastEvent.CompareAndSwap(last, now) {
				pc := p
				seq := q.opts.Events.Publish(api.JobEvent{
					Type: api.JobEventProgress, JobID: id, TraceID: trace,
					State: JobRunning, Progress: &pc,
				})
				// Progress watermarks ride the next group commit: losing
				// the tail only loses a cosmetic high-water mark.
				q.journal(JournalRecord{
					T: recProgress, JobID: id, Seq: seq,
					State: JobRunning, Progress: &pc,
				}, false)
			}
		}
	}
	start := time.Now()
	res, err, panicked := q.execute(jctx, j.Spec, update)
	elapsed := time.Since(start).Seconds()
	deadlineHit := errors.Is(jctx.Err(), context.DeadlineExceeded)
	cancel()

	q.mu.Lock()
	delete(q.running, id)
	fin := q.opts.now().UTC()
	j.Finished = &fin
	retryable := false
	switch {
	case err == nil:
		if res != nil {
			res.Seconds = elapsed
		}
		q.setStateLocked(j, JobCompleted)
		j.Result = res
		q.failStreak = 0
	case q.jobCtx.Err() != nil:
		// Shutdown cut the campaign short: keep the job queued so a
		// recovery re-runs it, and give the attempt back.
		q.setStateLocked(j, JobQueued)
		j.Attempts--
		j.Error = err.Error()
	case deadlineHit && !rj.stuck.Load() && !rj.injected:
		// The job's own deadline fired. Terminal: a rerun of the same
		// spec would only time out again.
		ctrDeadlineExceeded.Add(1)
		q.setStateLocked(j, JobFailed)
		j.Error = fmt.Sprintf("deadline exceeded after %.1fs: %v", elapsed, err)
	case rj.stuck.Load():
		retryable = true
		j.Error = "watchdog: no progress for " + q.opts.StuckTimeout.String() + ": " + err.Error()
	case rj.injected:
		retryable = true
		j.Error = err.Error()
	case panicked || errors.Is(err, ErrTransient) || errors.Is(err, ErrInterrupted):
		retryable = true
		j.Error = err.Error()
	default:
		q.setStateLocked(j, JobFailed)
		j.Error = err.Error()
	}
	if retryable {
		if j.Attempts < q.opts.MaxAttempts && !q.draining {
			q.setStateLocked(j, JobQueued)
			q.scheduleRetryLocked(id, j.Attempts)
		} else {
			q.setStateLocked(j, JobFailed)
			j.Error = fmt.Sprintf("retries exhausted after %d attempts: %s", j.Attempts, j.Error)
		}
	}
	if j.State == JobFailed {
		q.failStreakLocked()
	}
	terminal := j.State == JobCompleted || j.State == JobFailed
	if terminal {
		// A terminal GA job's generation history is dead weight: the
		// result carries the trajectory, and resume no longer applies.
		delete(q.gaGens, id)
	}
	snap = snapshotJob(j)
	q.mu.Unlock()
	q.emit(snap, string(snap.State))
	if !terminal {
		seq = q.publishState(snap)
		q.journal(JournalRecord{
			T: recState, JobID: id, Seq: seq, State: snap.State,
			Attempts: snap.Attempts, Error: snap.Error,
		}, false)
		return
	}
	seq = q.publishTerminal(snap)
	// Terminal records are fsynced before the worker moves on. (The state
	// above and the frame just published were visible one fsync earlier:
	// mutation before append is what lets a compaction's snapshot cover
	// every record below its mark, and a crash inside that fsync re-runs
	// a deterministic job.) With the record in the journal that is all a
	// finish costs — the compactor folds it into a snapshot once the log
	// has grown enough. With a journal that has failed, a compaction is
	// this finish's only durable record and is written here, before the
	// worker takes its next job.
	journaled := q.journal(JournalRecord{
		T: recFinish, JobID: id, Seq: seq, At: fin, State: snap.State,
		Result: snap.Result, Error: snap.Error, Attempts: snap.Attempts,
	}, true)
	if !journaled {
		q.checkpointOrReport()
		return
	}
	q.hook(stepFinish, id)
	select {
	case q.compactKick <- struct{}{}:
	default:
	}
}

// queueRetryMax caps a job retry's exponential backoff.
const queueRetryMax = 5 * time.Second

// scheduleRetryLocked arms the backoff timer for a requeued job. Caller
// holds q.mu.
func (q *Queue) scheduleRetryLocked(id string, attempts int) {
	delay := backoff(q.opts.retryBase, queueRetryMax, attempts, q.rng)
	ctrQueueRetries.Add(1)
	obs.Emit(q.opts.Sink, obs.Event{
		Type: obs.EventPhase,
		Name: "queue/" + id,
		Fields: map[string]any{
			"event":    "retry_scheduled",
			"attempts": attempts,
			"delay_ms": delay.Milliseconds(),
		},
	})
	q.timers[id] = time.AfterFunc(delay, func() { q.requeue(id) })
}

// backoff is the retry formula of the queue's jobs and the lease pool's
// units: base doubled per prior attempt, capped at ceiling, with jitter
// drawn from rng in the upper half of the window so synchronized
// failures fan out. The caller holds the lock that guards rng.
func backoff(base, ceiling time.Duration, attempts int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempts && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)/2+1))
}

// requeue moves a backoff-expired job back into the work channel. If
// the pending buffer is momentarily full the retry re-arms instead of
// dropping the job.
func (q *Queue) requeue(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.timers, id)
	if q.draining {
		return
	}
	j, ok := q.jobs[id]
	if !ok || j.State != JobQueued {
		return
	}
	select {
	case q.work <- id:
	default:
		q.timers[id] = time.AfterFunc(q.opts.retryBase, func() { q.requeue(id) })
	}
}

// failStreakLocked advances the consecutive-failure count and trips the
// circuit breaker at the threshold: workers pause for the cooldown so
// a poisoned environment (bad core build, failing disk) stops burning
// the backlog. Caller holds q.mu.
func (q *Queue) failStreakLocked() {
	q.failStreak++
	if q.failStreak < q.opts.breakerThreshold {
		return
	}
	q.failStreak = 0
	q.breakerOpen = q.opts.now().Add(q.opts.breakerCooldown)
	ctrBreakerTrips.Add(1)
	gaugeBreaker.Set(1)
	obs.Emit(q.opts.Sink, obs.Event{
		Type: obs.EventPhase,
		Name: "queue",
		Fields: map[string]any{
			"event":       "breaker_tripped",
			"cooldown_ms": q.opts.breakerCooldown.Milliseconds(),
		},
	})
}

// watchdog cancels running jobs that stop publishing progress. The
// executor sees its context die, unwinds at the next segment boundary,
// and the queue retries the job within its attempt budget.
func (q *Queue) watchdog() {
	defer q.wg.Done()
	interval := q.opts.StuckTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-tick.C:
			now := time.Now()
			q.mu.Lock()
			for id, rj := range q.running {
				last := time.Unix(0, rj.lastProgress.Load())
				if now.Sub(last) <= q.opts.StuckTimeout || rj.stuck.Swap(true) {
					continue
				}
				ctrWatchdogTrips.Add(1)
				obs.Emit(q.opts.Sink, obs.Event{
					Type: obs.EventPhase,
					Name: "queue/" + id,
					Fields: map[string]any{
						"event":    "watchdog_cancel",
						"stuck_ms": now.Sub(last).Milliseconds(),
					},
				})
				rj.cancel()
			}
			q.mu.Unlock()
		}
	}
}

// execute runs the executor with panic containment: a panicking job
// takes down neither its worker goroutine nor the queue.
func (q *Queue) execute(ctx context.Context, spec JobSpec, update func(Progress)) (res *JobResult, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("engine: job panic: %v\n%s", r, debug.Stack())
		}
	}()
	res, err = q.opts.Exec(ctx, spec, update)
	return res, err, false
}

func (q *Queue) emit(j Job, what string) {
	obs.Emit(q.opts.Sink, obs.Event{
		Type:  obs.EventPhase,
		Name:  "queue/" + j.ID,
		Trace: j.Spec.TraceID,
		Fields: map[string]any{
			"event":    what,
			"kind":     string(j.Spec.Kind),
			"state":    string(j.State),
			"attempts": j.Attempts,
		},
	})
}

// snapshotJob copies a job for hand-out. Result is shared intentionally:
// it is written once before the terminal transition and immutable after.
func snapshotJob(j *Job) Job {
	c := *j
	if j.Started != nil {
		t := *j.Started
		c.Started = &t
	}
	if j.Finished != nil {
		t := *j.Finished
		c.Finished = &t
	}
	return c
}
