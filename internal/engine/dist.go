package engine

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/obs"
)

// dist.go is the fleet side of the executor's one choice: poolRunner
// hands a fault-simulation cell to the LeasePool as work units and
// waits for the worker fleet to merge them, where the local runner
// would simulate it in-process. The job kinds themselves are written
// once, in exec.go and ga.go, and do not know which runner they got.
// RunWorkUnit is the other half of the protocol: the per-unit
// computation a worker performs, through the same simulateUnit as an
// in-process cell, which is what makes merged results bit-identical to
// a single-process run.

// DistOptions configure NewDistExecutor.
type DistOptions struct {
	// Units is the number of work units each fault-sim campaign is
	// split into (default 8). More units than workers keeps the fleet
	// busy and shrinks the re-run cost of a lost lease.
	Units int
	// ShadowSample/ShadowSeed forward the window audit's policy into
	// every unit, so workers guard their compiled kernel exactly like the
	// in-process path does (see docs/RESILIENCE.md).
	ShadowSample float64
	ShadowSeed   int64
	// OnMerged, when set, receives each distributed campaign's merged
	// fault.Result before it is summarized into a JobResult — a
	// diagnostics hook, and the lever the e2e tests use to pin
	// bit-identity against the serial oracle.
	OnMerged func(jobID string, res *fault.Result)
}

// jobIDKey carries the queue's job ID through the executor context, so
// a distributed executor can register lease-pool work under the same ID
// the HTTP surface and the checkpoint use.
type jobIDKey struct{}

func withJobID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, jobIDKey{}, id)
}

// JobIDFromContext returns the queue job ID the executor is running
// under, or "" outside a queue.
func JobIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

var distAnonID atomic.Int64

// NewDistExecutor returns the coordinator Executor: the same dispatch
// as NewExecutor, with every fault-simulation cell split into work
// units on the lease pool and executed by the worker fleet.
func NewDistExecutor(cfg ExecConfig, pool *LeasePool, opts DistOptions) Executor {
	if opts.Units <= 0 {
		opts.Units = 8
	}
	return newExecutor(cfg, poolRunner{cfg: cfg, pool: pool, opts: opts})
}

// cellJobID resolves the ID a job's cells run under: the queue's job ID
// when running under a queue, a fresh synthetic ID otherwise.
func cellJobID(ctx context.Context) string {
	if id := JobIDFromContext(ctx); id != "" {
		return id
	}
	return fmt.Sprintf("dist-%04d", distAnonID.Add(1))
}

// poolRunner registers a cell's units on the lease pool under the
// cell's ID and waits for the fleet.
type poolRunner struct {
	cfg  ExecConfig
	pool *LeasePool
	opts DistOptions
}

func (r poolRunner) runCell(ctx context.Context, id string, d *designs.Design, cell JobSpec, update func(Progress)) (*fault.Result, error) {
	span := obs.NewSpan(obs.WithTrace(r.cfg.Sink, cell.TraceID), "engine.dist")
	span.Add("units", int64(r.opts.Units))
	span.Add("faults", int64(len(d.Faults)))
	defer span.End()

	// The pool reports a unit's progress after it has released Wait, and
	// a caller's update reads state the caller goes on to write (a
	// matrix's running totals, a GA's best-so-far). The gate keeps every
	// update inside this call, as the local runner's already are.
	var gate sync.Mutex
	open := true
	defer func() {
		gate.Lock()
		open = false
		gate.Unlock()
	}()
	h, err := r.pool.Register(id, cell, len(d.Faults), r.opts.Units,
		r.opts.ShadowSample, r.opts.ShadowSeed, func(p Progress) {
			gate.Lock()
			defer gate.Unlock()
			if open {
				update(p)
			}
		})
	if err != nil {
		return nil, err
	}
	merge, err := h.Wait(ctx)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			return nil, fmt.Errorf("%w: distributed campaign cancelled", ErrInterrupted)
		case api.IsRetryable(err):
			// Pool shutdown or withdrawal: the environment, not the spec,
			// failed — the queue may retry within the job's budget.
			return nil, fmt.Errorf("%w: %v", ErrTransient, err)
		default:
			return nil, err
		}
	}
	span.Event(obs.EventSummary, map[string]any{
		"cycles": merge.Cycles,
		"faults": len(d.Faults),
	})
	res := &fault.Result{
		Faults:     d.Faults,
		DetectedAt: merge.DetectedAt,
		Detections: merge.Detections,
		Cycles:     merge.Cycles,
	}
	if r.opts.OnMerged != nil {
		r.opts.OnMerged(id, res)
	}
	return res, nil
}

// Each cell is its own registration, so a cohort in flight together
// keeps the whole fleet busy.
func (poolRunner) concurrent() bool { return true }

// RunWorkUnit executes one leased unit: the worker-side half of the
// protocol. It resolves the unit's design through the registry cache,
// refuses units whose fault-list length disagrees with its own build
// (version skew would silently mis-index the merge), simulates the
// unit's fault slice with the same guarded call as a local campaign,
// and packs the detection bitmaps
// with their checksum.
func RunWorkUnit(ctx context.Context, workerID string, u api.WorkUnit,
	cfg ExecConfig, progress func(api.Progress)) (*api.UnitResult, error) {

	// Chaos point: a worker whose unit crashes, stalls, or fails with a
	// transient environment error before simulating.
	if f := chaos.Maybe("worker.unit"); f != nil {
		f.PanicNow()
		f.Sleep(ctx)
		if ierr := f.Err(); ierr != nil {
			return nil, fmt.Errorf("%w: %v", ErrTransient, ierr)
		}
	}
	d, err := GetDesign(u.Spec.Design)
	if err != nil {
		return nil, err
	}
	if u.TotalFaults != len(d.Faults) {
		return nil, fmt.Errorf("engine: unit %d of job %s expects %d faults, this build of design %s collapses %d — refusing mismatched design",
			u.Unit, u.JobID, u.TotalFaults, d.ID, len(d.Faults))
	}
	if u.FaultLo < 0 || u.FaultHi > len(d.Faults) || u.FaultLo >= u.FaultHi {
		return nil, fmt.Errorf("engine: unit %d of job %s has bad fault range [%d,%d)", u.Unit, u.JobID, u.FaultLo, u.FaultHi)
	}
	start := time.Now()
	res, err := simulateUnit(ctx, cfg, d, u.Spec, u.FaultLo, u.FaultHi, u.ShadowSample, u.ShadowSeed, progress)
	if err != nil {
		return nil, err
	}
	out := api.NewUnitResult(workerID, res.DetectedAt, res.Detections, res.Cycles, time.Since(start).Seconds())
	// Chaos point: a result corrupted after checksumming (bad NIC, bad
	// RAM on the upload path) — the coordinator's checksum verification
	// must catch it and requeue the unit.
	if f := chaos.Maybe("worker.result"); f != nil {
		if corrupted, ok := corruptPacked(out.DetectedAt, f); ok {
			out.DetectedAt = corrupted
		}
	}
	return out, nil
}

// corruptPacked flips one seeded-random bit in a packed bitmap's first
// word (corrupt-kind fires only).
func corruptPacked(s string, f *chaos.Fire) (string, bool) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(buf) < 8 {
		return s, false
	}
	w := binary.LittleEndian.Uint64(buf)
	cw := f.CorruptWord(w)
	if cw == w {
		return s, false
	}
	binary.LittleEndian.PutUint64(buf, cw)
	return base64.StdEncoding.EncodeToString(buf), true
}

// IsTerminalUnitError reports whether a unit failure is worth retrying
// on another lease (environment trouble, interruption) or is inherent
// to the unit (bad spec, mismatched core) and should charge hard.
func IsTerminalUnitError(err error) bool {
	return err != nil && !errors.Is(err, ErrTransient) && !errors.Is(err, ErrInterrupted)
}
