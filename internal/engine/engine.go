// Package engine is the campaign layer above the fault simulator: one
// guarded fault-simulation call per campaign, a bounded job queue with
// panic recovery and resume from one durable log, and the job executor
// behind the sbstd HTTP server.
//
// Simulate is one fault.Simulate call. That call already spends every
// core — it replays each segment's fault batches on GOMAXPROCS
// goroutines — and audits a seeded sample of its windows against the
// reference simulator (fault.SimOptions.ShadowSample). Around it,
// Simulate resolves the shared artifacts, retries a call that panics or
// fails once, and quarantines the compiled kernel when the audit
// disagrees (shadow.go).
package engine

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/artifacts"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

var (
	ctrSimRuns      = obs.Default().Counter("engine.sim.runs")
	ctrShardRetries = obs.Default().Counter("engine.shard_retries")

	// gaugeVectorsPerSec is the most recent campaign's whole-run
	// throughput; also surfaced through /v1/meta.
	gaugeVectorsPerSec = obs.Default().GaugeFamily("sbst_sim_vectors_per_second",
		"Most recent simulation's vectors-per-second throughput.").Gauge()
)

// callAttempts is the call's run budget: a call that panics or returns
// an error other than a divergence (including chaos-injected ones) is
// retried from scratch once before the campaign fails. Fault simulation
// is deterministic, so the retry reproduces the identical result.
const callAttempts = 2

// SimOptions extend fault.SimOptions with the quarantine and artifact
// knobs.
type SimOptions struct {
	fault.SimOptions
	// Workers is ignored: one call already replays its fault batches on
	// every core. It stays because the benchmark sets it, until ROADMAP
	// item 10(g) deletes it.
	Workers int
	// ShadowSample, when non-zero, overrides fault.SimOptions.ShadowSample,
	// the fraction of the call's windows audited. It stays because the
	// benchmark sets it here.
	ShadowSample float64
	// DesignHash, when non-empty, enables the cross-job artifact cache:
	// the fault-free good trace is resolved from (and published to) the
	// artifact store under (DesignHash, hash of the expanded vectors), so
	// a repeated submission of the same design and vector source performs
	// zero good-machine cycles. Use designs.Design.Hash — the caller owns
	// the guarantee that the hash matches the netlist.
	DesignHash string
	// Artifacts overrides the process-wide artifact store; nil selects
	// artifacts.Default(). Tests and benchmarks inject private stores.
	Artifacts *artifacts.Store
	// NoArtifacts disables artifact resolution even with a DesignHash
	// set — the cold path, for benchmarks that price the good machine.
	NoArtifacts bool
}

// Simulate fault-simulates the vector sequence against the netlist in
// one fault.Simulate call, whose DetectedAt and Detections it returns
// unchanged. A call that panics or fails is retried once; a call whose
// audit disagrees with the compiled kernel is re-run on the reference
// kernel (shadow.go). Progress, Sink and Ctx behave as in fault.Simulate;
// a retried or quarantined call reports its progress again from the
// start.
func Simulate(n *logic.Netlist, vecs fault.VectorSeq, opts SimOptions) (*fault.Result, error) {
	if len(n.Inputs()) > 64 {
		return nil, fmt.Errorf("engine: %d primary inputs exceed the 64 supported", len(n.Inputs()))
	}
	start := time.Now()
	// Artifact resolution (no-op without a DesignHash): shares the
	// completed good trace across jobs keyed by content, and holds the
	// store lease until the call is done.
	release := resolveArtifacts(n, vecs, &opts)
	defer release()
	sim := opts.SimOptions
	if opts.ShadowSample != 0 {
		sim.ShadowSample = opts.ShadowSample
	}
	ctrSimRuns.Add(1)
	res, err := supervise(n, vecs, sim)
	var div *fault.DivergenceError
	if errors.As(err, &div) {
		res, err = quarantine(n, vecs, sim, div)
	}
	if err != nil {
		return nil, err
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		gaugeVectorsPerSec.Set(float64(res.Cycles) / secs)
	}
	return res, nil
}

// supervise runs the call under its supervisor: a call that panics or
// fails is retried once from scratch instead of taking down the
// campaign — or, without the recover, the process. A divergence is not
// retried; the quarantine answers it.
func supervise(n *logic.Netlist, vecs fault.VectorSeq, sim fault.SimOptions) (*fault.Result, error) {
	for attempt := 1; ; attempt++ {
		res, err := call(n, vecs, sim)
		var div *fault.DivergenceError
		if err == nil || attempt >= callAttempts || errors.As(err, &div) ||
			(sim.Ctx != nil && sim.Ctx.Err() != nil) {
			return res, err
		}
		ctrShardRetries.Add(1)
		obs.Emit(sim.Sink, obs.Event{
			Type: obs.EventPhase,
			Name: "engine.sim",
			Fields: map[string]any{
				"event":   "shard_retry",
				"attempt": attempt,
				"error":   err.Error(),
			},
		})
	}
}

// call is one attempt: the engine.shard chaos point, then fault.Simulate,
// with a panic on any of the call's goroutines turned into an error.
func call(n *logic.Netlist, vecs fault.VectorSeq, sim fault.SimOptions) (res *fault.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("engine: simulation panic: %v\n%s", r, debug.Stack())
		}
	}()
	// Chaos point: a call that crashes outright, stalls, or fails with a
	// transient error before doing any work. It keeps the name it had when
	// a campaign ran as shards.
	if f := chaos.Maybe("engine.shard"); f != nil {
		f.PanicNow()
		f.Sleep(sim.Ctx)
		if ierr := f.Err(); ierr != nil {
			return nil, fmt.Errorf("engine: %w", ierr)
		}
	}
	return fault.Simulate(n, vecs, sim)
}

func safeRatio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
