package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// lease.go is the coordinator side of the distributed campaign
// protocol: a LeasePool splits each fault-simulation job's collapsed
// fault list into contiguous work units, hands units to workers under
// time-bounded leases, and merges the uploaded detection bitmaps back
// into one per-fault array. Expired and failed leases requeue with the
// queue's exponential-backoff discipline and a bounded per-unit attempt
// budget, so a crashing worker delays a campaign instead of corrupting
// or wedging it. Fault independence makes per-fault results invariant
// under partitioning, so the merged campaign is bit-identical to a
// single-process run for any worker count and any kill/restart
// schedule — the distributed e2e test in internal/worker pins this
// against the serial oracle.

// Lease traffic reports through one labeled family (the flat lease.*
// counters of earlier revisions became its children; handles keep their
// old names so call sites read the same).
var (
	famLeaseEvents = obs.Default().CounterFamily("sbst_lease_events_total",
		"Lease lifecycle events on the coordinator, by event.", "event")
	ctrLeaseGranted   = famLeaseEvents.Counter("granted")
	ctrLeaseCompleted = famLeaseEvents.Counter("completed")
	ctrLeaseFailed    = famLeaseEvents.Counter("failed")
	ctrLeaseExpired   = famLeaseEvents.Counter("expired")
	ctrLeaseHeartbeat = famLeaseEvents.Counter("heartbeat")
	ctrLeaseBadResult = famLeaseEvents.Counter("bad_result")
	ctrDistJobs       = obs.Default().Counter("dist.jobs")

	famLeaseUnits = obs.Default().GaugeFamily("sbst_lease_units",
		"Work units registered with the lease pool, by state.", "state")
	gaugeUnitsPending = famLeaseUnits.Gauge("pending")
	gaugeUnitsLeased  = famLeaseUnits.Gauge("leased")
	gaugeUnitsDone    = famLeaseUnits.Gauge("done")

	// histHeartbeatGap feeds both the exposition histogram and the
	// heartbeat p99 served in /v1/meta.
	histHeartbeatGap = obs.Default().HistogramFamily("sbst_heartbeat_gap_seconds",
		"Gap between successive heartbeats on a lease, observed by the coordinator.",
		obs.DefBuckets).Histogram()
)

// PoolOptions configure NewLeasePool.
type PoolOptions struct {
	// TTL is the lease lifetime without a heartbeat (default 30s).
	TTL time.Duration
	// UnitAttempts is each unit's run budget across grants: expired
	// leases and failed uploads both charge it (default 3).
	UnitAttempts int
	// RetryBase/RetryMax shape the backoff before a failed unit is
	// offered again (defaults 100ms / 5s, doubling per spent attempt —
	// the queue's retry discipline applied to units).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Sink receives lease lifecycle events.
	Sink obs.Sink
	// Events, when set, receives lease-typed JobEvents for the SSE
	// stream. Share one broker with the queue and server.
	Events *JobEventBroker
	// Journal, when set, mirrors lease events into the write-ahead
	// journal so SSE streams replay grant/complete history across a
	// coordinator restart. Share the queue's journal.
	Journal *Journal

	// now overrides the clock in tests.
	now func() time.Time
}

// unitState is a work unit's position in the lease lifecycle.
type unitState uint8

const (
	unitPending unitState = iota
	unitLeased
	unitDone
)

// poolUnit is one work unit's coordinator-side record.
type poolUnit struct {
	wire      api.WorkUnit
	state     unitState
	attempts  int       // grants consumed
	notBefore time.Time // backoff gate while pending
	leaseID   string    // current lease while leased
	progress  api.Progress
}

// distJob is one distributed job's unit set and merge target.
type distJob struct {
	id        string
	trace     string // campaign trace ID from the registering spec
	units     []*poolUnit
	ndetect   int
	detected  []int32
	counts    []int32 // nil unless ndetect > 1
	cycles    int
	remaining int
	err       *api.Error
	done      chan struct{}
	progress  func(api.Progress)
}

// lease is one outstanding grant.
type lease struct {
	id       string
	workerID string
	job      *distJob
	unit     *poolUnit
	deadline time.Time
	lastBeat time.Time // grant or last heartbeat, for the gap histogram
}

// DistHandle is the executor's view of a registered distributed job:
// Wait blocks until every unit is merged (or the job's attempt budget
// is exhausted, or ctx is cancelled).
type DistHandle struct {
	pool *LeasePool
	job  *distJob
}

// UnitMerge is a completed distributed job's merged detection bitmaps.
type UnitMerge struct {
	DetectedAt []int32
	Detections []int32 // nil unless the campaign ran with NDetect > 1
	Cycles     int
}

// LeasePool coordinates work units across a worker fleet. All exported
// methods are safe for concurrent use. Protocol-level failures are
// returned as *api.Error envelopes so the HTTP layer can serve them
// verbatim.
type LeasePool struct {
	opts PoolOptions

	mu        sync.Mutex
	jobs      map[string]*distJob
	order     []string
	leases    map[string]*lease
	nextLease int
	rng       *rand.Rand
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewLeasePool builds and starts a pool (including its lease-expiry
// scanner); Close stops it.
func NewLeasePool(opts PoolOptions) *LeasePool {
	if opts.TTL <= 0 {
		opts.TTL = 30 * time.Second
	}
	if opts.UnitAttempts <= 0 {
		opts.UnitAttempts = 3
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 5 * time.Second
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	p := &LeasePool{
		opts:   opts,
		jobs:   make(map[string]*distJob),
		leases: make(map[string]*lease),
		rng:    rand.New(rand.NewSource(1)),
		stop:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.scanner()
	return p
}

// Close stops the expiry scanner and invalidates every outstanding
// lease and registered job. Waiters see a pool-closed failure.
func (p *LeasePool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.stop)
		for _, j := range p.jobs {
			if j.err == nil && j.remaining > 0 {
				j.err = api.Errf(api.CodeUnavailable, true, "coordinator shutting down")
				close(j.done)
			}
		}
		p.jobs = make(map[string]*distJob)
		p.leases = make(map[string]*lease)
		p.order = nil
	} else {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// unitRange is the unit planner: unit i of n over total faults covers
// [i*total/n, (i+1)*total/n).
func unitRange(i, n, total int) (lo, hi int) {
	return i * total / n, (i + 1) * total / n
}

// Register splits a job into units and opens it for leasing. progress
// (may be nil) receives aggregated snapshots on every heartbeat and
// merge — wire it to the queue's update callback so worker heartbeats
// feed the stuck-job watchdog. The spec inside wire units carries the
// owning job's stimulus description.
func (p *LeasePool) Register(jobID string, spec api.JobSpec, totalFaults, units int,
	shadowSample float64, shadowSeed int64, progress func(api.Progress)) (*DistHandle, error) {

	if totalFaults <= 0 {
		return nil, fmt.Errorf("engine: distributed job %s with %d faults", jobID, totalFaults)
	}
	if units <= 0 {
		units = 1
	}
	if units > totalFaults {
		units = totalFaults
	}
	ndet := specNDetect(spec)
	j := &distJob{
		id:        jobID,
		trace:     spec.TraceID,
		ndetect:   ndet,
		detected:  make([]int32, totalFaults),
		remaining: units,
		done:      make(chan struct{}),
		progress:  progress,
	}
	if ndet > 1 {
		j.counts = make([]int32, totalFaults)
	}
	for i := 0; i < units; i++ {
		lo, hi := unitRange(i, units, totalFaults)
		j.units = append(j.units, &poolUnit{
			wire: api.WorkUnit{
				JobID: jobID, Unit: i, Units: units, Spec: spec,
				FaultLo: lo, FaultHi: hi, TotalFaults: totalFaults,
				ShadowSample: shadowSample, ShadowSeed: shadowSeed,
			},
			progress: api.Progress{Remaining: hi - lo},
		})
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("engine: lease pool closed")
	}
	if _, dup := p.jobs[jobID]; dup {
		return nil, fmt.Errorf("engine: job %s already registered", jobID)
	}
	p.jobs[jobID] = j
	p.order = append(p.order, jobID)
	ctrDistJobs.Add(1)
	p.updateUnitGaugesLocked()
	obs.Emit(p.opts.Sink, obs.Event{
		Type:  obs.EventPhase,
		Name:  "lease/" + jobID,
		Trace: j.trace,
		Fields: map[string]any{
			"event": "registered", "units": units, "faults": totalFaults,
		},
	})
	return &DistHandle{pool: p, job: j}, nil
}

// updateUnitGaugesLocked refreshes the pool's unit-state gauges.
// Caller holds p.mu.
func (p *LeasePool) updateUnitGaugesLocked() {
	var pending, leased, done float64
	for _, j := range p.jobs {
		for _, u := range j.units {
			switch u.state {
			case unitPending:
				pending++
			case unitLeased:
				leased++
			case unitDone:
				done++
			}
		}
	}
	gaugeUnitsPending.Set(pending)
	gaugeUnitsLeased.Set(leased)
	gaugeUnitsDone.Set(done)
}

// publishLease emits a lease-typed JobEvent on the shared broker
// (no-op without one). Callers may hold p.mu: the broker's lock is a
// leaf in the lock order.
func (p *LeasePool) publishLease(j *distJob, ev api.LeaseEvent) {
	seq := p.opts.Events.Publish(api.JobEvent{
		Type: api.JobEventLease, JobID: j.id, TraceID: j.trace, Lease: &ev,
	})
	if p.opts.Journal != nil {
		// Async: lease history feeds SSE replay, not queue state — the
		// units themselves are re-planned when a recovered job re-runs.
		lc := ev
		_ = p.opts.Journal.Append(JournalRecord{
			T: recLease, JobID: j.id, Seq: seq, State: JobRunning, Lease: &lc,
		}, false)
	}
}

// Release withdraws a job from the pool (executor cancelled, job done).
// Outstanding leases for it answer lease_gone from here on.
func (p *LeasePool) Release(jobID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[jobID]
	if !ok {
		return
	}
	delete(p.jobs, jobID)
	for i, id := range p.order {
		if id == jobID {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	for id, l := range p.leases {
		if l.job == j {
			delete(p.leases, id)
		}
	}
	if j.err == nil && j.remaining > 0 {
		j.err = api.Errf(api.CodeUnavailable, true, "job %s withdrawn from the pool", jobID)
		close(j.done)
	}
	p.updateUnitGaugesLocked()
}

// Wait blocks until the job's units are all merged, the job failed, or
// ctx is cancelled (in which case the job is withdrawn so stray workers
// get lease_gone instead of feeding a dead campaign).
func (h *DistHandle) Wait(ctx context.Context) (*UnitMerge, error) {
	select {
	case <-h.job.done:
	case <-ctx.Done():
		h.pool.Release(h.job.id)
		return nil, ctx.Err()
	}
	h.pool.mu.Lock()
	err := h.job.err
	merge := &UnitMerge{DetectedAt: h.job.detected, Detections: h.job.counts, Cycles: h.job.cycles}
	h.pool.mu.Unlock()
	h.pool.Release(h.job.id)
	if err != nil {
		return nil, err
	}
	return merge, nil
}

// Acquire grants the oldest offerable unit to a worker, or returns
// (nil, nil) when no work is available (the HTTP layer answers 204 and
// the worker polls again).
func (p *LeasePool) Acquire(req api.LeaseRequest) (*api.Lease, error) {
	if req.WorkerID == "" {
		return nil, api.Errf(api.CodeBadRequest, false, "lease request without worker_id")
	}
	// Chaos point: a coordinator that stalls or errors while granting —
	// workers must treat it as back-pressure, not failure.
	if f := chaos.Maybe("engine.lease.grant"); f != nil {
		f.Sleep(nil)
		if ierr := f.Err(); ierr != nil {
			return nil, api.Errf(api.CodeUnavailable, true, "%v", ierr)
		}
	}
	now := p.opts.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, api.Errf(api.CodeUnavailable, false, "coordinator shutting down")
	}
	for _, jobID := range p.order {
		j := p.jobs[jobID]
		if j.err != nil {
			// Failed (budget-exhausted) jobs stay registered until their
			// waiter collects the error, but offer no further work.
			continue
		}
		for _, u := range j.units {
			if u.state != unitPending || now.Before(u.notBefore) {
				continue
			}
			p.nextLease++
			l := &lease{
				id:       fmt.Sprintf("lease-%04d", p.nextLease),
				workerID: req.WorkerID,
				job:      j,
				unit:     u,
				deadline: now.Add(p.opts.TTL),
				lastBeat: now,
			}
			u.state = unitLeased
			u.leaseID = l.id
			p.leases[l.id] = l
			ctrLeaseGranted.Add(1)
			p.updateUnitGaugesLocked()
			obs.Emit(p.opts.Sink, obs.Event{
				Type:  obs.EventPhase,
				Name:  "lease/" + jobID,
				Trace: j.trace,
				Fields: map[string]any{
					"event": "granted", "lease": l.id, "unit": u.wire.Unit,
					"worker": req.WorkerID, "attempt": u.attempts,
				},
			})
			p.publishLease(j, api.LeaseEvent{
				Event: "granted", LeaseID: l.id, Unit: u.wire.Unit,
				WorkerID: req.WorkerID, Attempt: u.attempts,
			})
			return &api.Lease{
				ID: l.id, WorkerID: req.WorkerID, Unit: u.wire,
				TTLMillis:       p.opts.TTL.Milliseconds(),
				HeartbeatMillis: (p.opts.TTL / 3).Milliseconds(),
				Attempt:         u.attempts,
			}, nil
		}
	}
	return nil, nil
}

// Heartbeat extends a lease and folds the worker's unit-local progress
// into the job's aggregate snapshot.
func (p *LeasePool) Heartbeat(leaseID string, hb api.Heartbeat) (*api.HeartbeatAck, error) {
	p.mu.Lock()
	l, ok := p.leases[leaseID]
	if !ok {
		p.mu.Unlock()
		return nil, api.Errf(api.CodeLeaseGone, true, "lease %s expired, reassigned or withdrawn", leaseID)
	}
	now := p.opts.now()
	histHeartbeatGap.Observe(now.Sub(l.lastBeat).Seconds())
	l.lastBeat = now
	l.deadline = now.Add(p.opts.TTL)
	l.unit.progress = hb.Progress
	ctrLeaseHeartbeat.Add(1)
	snap, notify := p.jobProgressLocked(l.job)
	p.mu.Unlock()
	if notify != nil {
		notify(snap)
	}
	return &api.HeartbeatAck{TTLMillis: p.opts.TTL.Milliseconds()}, nil
}

// Complete merges a finished unit's bitmaps. A checksum or shape
// mismatch charges the unit's attempt budget and requeues it — a
// corrupted upload costs a retry, never a wrong campaign.
func (p *LeasePool) Complete(leaseID string, res *api.UnitResult) error {
	p.mu.Lock()
	l, ok := p.leases[leaseID]
	if !ok {
		p.mu.Unlock()
		return api.Errf(api.CodeLeaseGone, true, "lease %s expired, reassigned or withdrawn", leaseID)
	}
	u, j := l.unit, l.job
	if j.err != nil {
		// The job failed while this worker was still simulating (another
		// unit exhausted its budget); its upload has nowhere to land.
		delete(p.leases, leaseID)
		p.mu.Unlock()
		return api.Errf(api.CodeLeaseGone, true, "lease %s belongs to a failed job", leaseID)
	}
	detected, counts, err := res.Unpack()
	if err == nil && len(detected) != u.wire.FaultHi-u.wire.FaultLo {
		err = fmt.Errorf("unit covers %d faults, upload has %d", u.wire.FaultHi-u.wire.FaultLo, len(detected))
	}
	if err == nil && (j.counts != nil) != (counts != nil) {
		err = fmt.Errorf("detections bitmap presence disagrees with the campaign's n-detect mode")
	}
	if err != nil {
		ctrLeaseBadResult.Add(1)
		delete(p.leases, leaseID)
		apiErr := api.Errf(api.CodeBadResult, true, "unit %d upload rejected: %v", u.wire.Unit, err)
		p.requeueLocked(j, u, "bad_result", apiErr.Message)
		p.mu.Unlock()
		return apiErr
	}

	delete(p.leases, leaseID)
	copy(j.detected[u.wire.FaultLo:u.wire.FaultHi], detected)
	if j.counts != nil {
		copy(j.counts[u.wire.FaultLo:u.wire.FaultHi], counts)
	}
	if res.Cycles > j.cycles {
		j.cycles = res.Cycles
	}
	u.state = unitDone
	u.progress = api.Progress{Done: res.Cycles, Total: res.Cycles}
	j.remaining--
	ctrLeaseCompleted.Add(1)
	p.updateUnitGaugesLocked()
	obs.Emit(p.opts.Sink, obs.Event{
		Type:  obs.EventPhase,
		Name:  "lease/" + j.id,
		Trace: j.trace,
		Fields: map[string]any{
			"event": "completed", "lease": leaseID, "unit": u.wire.Unit,
			"worker": res.WorkerID, "seconds": res.Seconds,
		},
	})
	p.publishLease(j, api.LeaseEvent{
		Event: "completed", LeaseID: leaseID, Unit: u.wire.Unit,
		WorkerID: res.WorkerID, Attempt: u.attempts,
	})
	finished := j.remaining == 0
	if finished {
		close(j.done)
	}
	snap, notify := p.jobProgressLocked(j)
	p.mu.Unlock()
	if notify != nil {
		notify(snap)
	}
	return nil
}

// Fail reports a unit its worker could not finish; the unit requeues
// with backoff while its attempt budget lasts, then fails the job.
func (p *LeasePool) Fail(leaseID string, f api.LeaseFailure) error {
	p.mu.Lock()
	l, ok := p.leases[leaseID]
	if !ok {
		p.mu.Unlock()
		return api.Errf(api.CodeLeaseGone, true, "lease %s expired, reassigned or withdrawn", leaseID)
	}
	delete(p.leases, leaseID)
	ctrLeaseFailed.Add(1)
	p.requeueLocked(l.job, l.unit, "worker_failure", f.Reason)
	p.mu.Unlock()
	return nil
}

// requeueLocked returns a unit to the pending pool with a backoff gate,
// charging one attempt; an exhausted budget fails the whole job.
// Caller holds p.mu.
func (p *LeasePool) requeueLocked(j *distJob, u *poolUnit, event, reason string) {
	u.attempts++
	u.leaseID = ""
	u.state = unitPending
	if u.attempts >= p.opts.UnitAttempts {
		if j.err == nil && j.remaining > 0 {
			j.err = api.Errf(api.CodeInternal, false,
				"unit %d failed %d times, last: %s", u.wire.Unit, u.attempts, reason)
			close(j.done)
		}
		event = "unit_exhausted"
	} else {
		u.notBefore = p.opts.now().Add(p.unitBackoffLocked(u.attempts))
	}
	p.updateUnitGaugesLocked()
	obs.Emit(p.opts.Sink, obs.Event{
		Type:  obs.EventPhase,
		Name:  "lease/" + j.id,
		Trace: j.trace,
		Fields: map[string]any{
			"event": event, "unit": u.wire.Unit,
			"attempts": u.attempts, "reason": reason,
		},
	})
	p.publishLease(j, api.LeaseEvent{
		Event: event, Unit: u.wire.Unit, Attempt: u.attempts, Reason: reason,
	})
}

// unitBackoffLocked is the queue's retry formula applied to units:
// RetryBase doubled per spent attempt, capped at RetryMax, jitter from
// the upper half of the window. Caller holds p.mu (for the rng).
func (p *LeasePool) unitBackoffLocked(attempts int) time.Duration {
	d := p.opts.RetryBase
	for i := 1; i < attempts && d < p.opts.RetryMax; i++ {
		d *= 2
	}
	if d > p.opts.RetryMax {
		d = p.opts.RetryMax
	}
	return d/2 + time.Duration(p.rng.Int63n(int64(d)/2+1))
}

// scanner expires leases whose workers stopped heartbeating: the unit
// requeues (with an attempt charge, so a unit bouncing between dead
// workers eventually fails the job) and any late call on the old lease
// answers lease_gone.
func (p *LeasePool) scanner() {
	defer p.wg.Done()
	interval := p.opts.TTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			now := p.opts.now()
			var snaps []func()
			p.mu.Lock()
			for id, l := range p.leases {
				if now.Before(l.deadline) {
					continue
				}
				delete(p.leases, id)
				ctrLeaseExpired.Add(1)
				p.requeueLocked(l.job, l.unit, "lease_expired",
					fmt.Sprintf("worker %s stopped heartbeating", l.workerID))
				if snap, notify := p.jobProgressLocked(l.job); notify != nil {
					snaps = append(snaps, func() { notify(snap) })
				}
			}
			p.mu.Unlock()
			for _, fn := range snaps {
				fn()
			}
		}
	}
}

// jobProgressLocked aggregates unit progress: the reported cycle count
// is the frontier every unit has passed, detected/remaining are summed.
// Caller holds
// p.mu; the returned callback (if any) must be invoked after unlocking.
func (p *LeasePool) jobProgressLocked(j *distJob) (api.Progress, func(api.Progress)) {
	if j.progress == nil {
		return api.Progress{}, nil
	}
	frontier := -1
	detected, remaining := 0, 0
	for _, u := range j.units {
		c := u.progress.Done
		if frontier < 0 || c < frontier {
			frontier = c
		}
		detected += u.progress.Detected
		remaining += u.progress.Remaining
	}
	if frontier < 0 {
		frontier = 0
	}
	return api.Progress{
		Done: frontier, Total: j.units[0].progress.Total,
		Detected: detected, Remaining: remaining,
		Coverage: safeRatio(detected, detected+remaining),
	}, j.progress
}

// Counts reports pool occupancy for healthz.
func (p *LeasePool) Counts() api.LeaseCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	var c api.LeaseCounts
	for _, j := range p.jobs {
		for _, u := range j.units {
			switch u.state {
			case unitPending:
				c.Pending++
			case unitLeased:
				c.Leased++
			case unitDone:
				c.Done++
			}
		}
	}
	return c
}

// SnapshotJob renders a job's distribution state for checkpoint v3
// (nil when the job is not registered).
func (p *LeasePool) SnapshotJob(jobID string) *api.DistState {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[jobID]
	if !ok {
		return nil
	}
	st := &api.DistState{Units: len(j.units)}
	for i, u := range j.units {
		if u.state == unitDone {
			st.Completed = append(st.Completed, i)
		}
		st.Attempts = append(st.Attempts, u.attempts)
	}
	return st
}
