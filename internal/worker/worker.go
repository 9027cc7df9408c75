// Package worker is the fleet side of distributed campaign execution:
// a pull-mode loop that leases runs of work units from an sbstd
// coordinator, simulates each lease's fault slice in one call against
// the shared gate-level core, heartbeats while it runs, and uploads
// checksummed detection bitmaps.
// cmd/sbst-worker wraps it in a binary; the distributed e2e tests run
// it in-process.
package worker

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
)

var (
	ctrUnitsDone   = obs.Default().Counter("worker.units_done")
	ctrUnitsFailed = obs.Default().Counter("worker.units_failed")
	ctrLeasesLost  = obs.Default().Counter("worker.leases_lost")

	// Labeled twins of the flat counters above, for /v1/metrics scrapes
	// (the -metrics-addr listener on sbst-worker).
	famUnits      = obs.Default().CounterFamily("sbst_worker_units_total", "Leased units by outcome.", "outcome")
	ctrUnitsDoneL = famUnits.Counter("done")
	ctrUnitsFailL = famUnits.Counter("failed")
	ctrLeaseLostL = famUnits.Counter("lease_lost")
	histHeartbeat = obs.Default().HistogramFamily("sbst_worker_heartbeat_seconds",
		"Round-trip time of lease heartbeats to the coordinator.", nil).Histogram()
)

// Options configure New.
type Options struct {
	// Coordinator is the sbstd base URL (e.g. http://localhost:8321).
	Coordinator string
	// ID names this worker in leases and logs (default host-pid).
	ID string
	// Poll is the idle sleep between acquire attempts when the
	// coordinator has no work (default 500ms).
	Poll time.Duration
	// Exec configures the unit simulations (event sink).
	Exec engine.ExecConfig
	// Client overrides the HTTP client (tests); built from Coordinator
	// when nil.
	Client *client.Client
	// Sink receives worker lifecycle events.
	Sink obs.Sink
}

// Worker runs the lease loop against one coordinator.
type Worker struct {
	opts Options
	c    *client.Client
}

// New builds a worker.
func New(opts Options) *Worker {
	if opts.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = client.New(opts.Coordinator, client.Options{})
	}
	return &Worker{opts: opts, c: opts.Client}
}

// ID returns the worker's lease identity.
func (w *Worker) ID() string { return w.opts.ID }

// Run executes the lease loop until ctx is cancelled (the graceful
// exit: a unit in flight is failed back to the coordinator as
// retryable, so another worker picks it up). Only a startup handshake
// mismatch is a hard error.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.handshake(ctx); err != nil {
		return err
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		lease, err := w.c.AcquireLease(ctx, w.opts.ID)
		if err != nil {
			// The client already retried transport trouble; whatever is
			// left (coordinator restarting, drain) just means "no work".
			w.idle(ctx)
			continue
		}
		if lease == nil {
			w.idle(ctx)
			continue
		}
		w.runUnit(ctx, lease)
	}
}

// handshake verifies the coordinator speaks /v1 and hands out leases,
// failing fast on version or capability skew instead of polling a
// server that will never feed us.
func (w *Worker) handshake(ctx context.Context) error {
	m, err := w.c.Meta(ctx)
	if err != nil {
		return fmt.Errorf("worker %s: coordinator handshake: %w", w.opts.ID, err)
	}
	if m.APIVersion != api.Version {
		return fmt.Errorf("worker %s: coordinator speaks %s, this build speaks %s",
			w.opts.ID, m.APIVersion, api.Version)
	}
	for _, c := range m.Capabilities {
		if c == "leases" {
			return nil
		}
	}
	return fmt.Errorf("worker %s: coordinator %s has no lease capability (jobs-only server?)",
		w.opts.ID, w.opts.Coordinator)
}

func (w *Worker) idle(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(w.opts.Poll):
	}
}

// runUnit simulates one lease's run of units under a heartbeat, then uploads the
// result or reports the failure.
func (w *Worker) runUnit(ctx context.Context, lease *api.Lease) {
	// Every call made for this unit — heartbeats, result upload, failure
	// report — carries the campaign's trace ID as X-Trace-Id, and every
	// lifecycle event lands in the worker's NDJSON trace under the same
	// ID, so sbst-trace can stitch coordinator and fleet into one
	// timeline.
	ctx = client.WithTraceID(ctx, lease.Unit.Spec.TraceID)
	w.emit(lease, "unit_start", nil)
	uctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Latest unit progress, shared with the heartbeater.
	var mu sync.Mutex
	var last api.Progress
	progress := func(p api.Progress) {
		mu.Lock()
		last = p
		mu.Unlock()
	}

	// Heartbeat until the unit finishes. A lease_gone answer means the
	// coordinator gave the unit away (we were presumed dead) — cancel
	// the simulation instead of burning cores on a result nobody wants.
	hbInterval := time.Duration(lease.HeartbeatMillis) * time.Millisecond
	if hbInterval <= 0 {
		hbInterval = time.Duration(lease.TTLMillis/3) * time.Millisecond
	}
	if hbInterval <= 0 {
		hbInterval = 5 * time.Second
	}
	// beat sends one heartbeat; it reports false when the lease is gone
	// (the coordinator gave the unit away because we were presumed dead)
	// — cancel the simulation instead of burning cores on a result
	// nobody wants.
	beat := func() bool {
		mu.Lock()
		p := last
		mu.Unlock()
		sent := time.Now()
		_, err := w.c.HeartbeatLease(uctx, lease.ID, api.Heartbeat{WorkerID: w.opts.ID, Progress: p})
		histHeartbeat.Observe(time.Since(sent).Seconds())
		var ae *api.Error
		if api.AsError(err, &ae) && ae.Code == api.CodeLeaseGone {
			ctrLeasesLost.Add(1)
			ctrLeaseLostL.Add(1)
			w.emit(lease, "lease_lost", nil)
			cancel()
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// First beat immediately: on a loaded machine the simulation can
		// outlive the TTL before the first ticker fire, and liveness must
		// be established from the moment the unit starts.
		if !beat() {
			return
		}
		tick := time.NewTicker(hbInterval)
		defer tick.Stop()
		for {
			select {
			case <-uctx.Done():
				return
			case <-tick.C:
				if !beat() {
					return
				}
			}
		}
	}()

	res, err := engine.RunWorkUnit(uctx, w.opts.ID, lease.Unit, w.opts.Exec, progress)
	cancel()
	wg.Wait()

	if err != nil {
		ctrUnitsFailed.Add(1)
		ctrUnitsFailL.Add(1)
		w.emit(lease, "unit_failed", map[string]any{"error": err.Error()})
		// Interrupted or transient failures are the fleet's problem to
		// absorb (another lease, another worker); terminal ones (core
		// mismatch, bad spec) charge the unit's budget hard either way —
		// the retryable flag is advisory context for the coordinator log.
		_ = w.c.FailLease(context.WithoutCancel(ctx), lease.ID, api.LeaseFailure{
			WorkerID:  w.opts.ID,
			Reason:    err.Error(),
			Retryable: !engine.IsTerminalUnitError(err),
		})
		return
	}
	// Upload with a context that survives worker shutdown: the unit is
	// finished, losing the result would only make the fleet redo it.
	if err := w.c.CompleteLease(context.WithoutCancel(ctx), lease.ID, res); err != nil {
		ctrUnitsFailed.Add(1)
		ctrUnitsFailL.Add(1)
		w.emit(lease, "upload_rejected", map[string]any{"error": err.Error()})
		return
	}
	ctrUnitsDone.Add(1)
	ctrUnitsDoneL.Add(1)
	w.emit(lease, "unit_done", map[string]any{"cycles": res.Cycles})
}

func (w *Worker) emit(lease *api.Lease, event string, extra map[string]any) {
	fields := map[string]any{
		"event":  event,
		"worker": w.opts.ID,
		"lease":  lease.ID,
		"job":    lease.Unit.JobID,
		"unit":   lease.Unit.Unit,
	}
	for k, v := range extra {
		fields[k] = v
	}
	obs.Emit(w.opts.Sink, obs.Event{
		Type: obs.EventPhase, Name: "worker/" + w.opts.ID,
		Trace: lease.Unit.Spec.TraceID, Fields: fields,
	})
}
