package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

// shadow.go is the compiled-kernel cross-checking guardrail: after a
// shard completes on the compiled cone-sweep kernel, a deterministic
// sample of its faults is re-simulated through the serial reference
// kernel (fault.KernelReference, the differential oracle). The two
// kernels are bit-identical by construction, so any divergence means
// the compiled kernel — or the memory under it — silently produced a
// wrong batch. In that case the compiled kernel is quarantined for the
// shard: the whole shard re-runs on the reference kernel, the
// kernel.divergence counter advances, and a diagnostic bundle records
// exactly which faults disagreed and how.

var ctrKernelDivergence = obs.Default().Counter("kernel.divergence")

// defaultShadowSample was sized for a <5% overhead budget on the
// Table-1 workload from a per-fault estimate (the reference kernel
// costs ~3.4x the compiled kernel per fault, so 0.5% of a shard's
// faults ≈ 1.7%). Measured, it is not: the benchmark's
// engine.shadow_overhead_pct reads 52–60% at Workers=2, the reference
// kernel's seconds over an op the compiled kernel has made much shorter
// (docs/PERFORMANCE.md).
const defaultShadowSample = 0.005

// runShard executes one shard with panic containment, the engine.shard
// chaos point, and the sampled shadow cross-check. It is the unit the
// shard supervisor in Simulate retries.
func runShard(n *logic.Netlist, vecs fault.VectorSeq, shard fault.SimOptions,
	opts SimOptions, s int) (res *fault.Result, err error) {

	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("engine: shard %d panic: %v\n%s", s, r, debug.Stack())
		}
	}()
	// Chaos point: a shard that crashes outright, stalls, or fails with
	// a transient error before doing any work.
	if f := chaos.Maybe("engine.shard"); f != nil {
		f.PanicNow()
		f.Sleep(shard.Ctx)
		if ierr := f.Err(); ierr != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", s, ierr)
		}
	}
	res, err = fault.Simulate(n, vecs, shard)
	if err != nil || res.Interrupted {
		// Interrupted shards stop at kernel-specific segment boundaries,
		// so a shadow comparison would be apples-to-oranges; the partial
		// result is reported as-is.
		return res, err
	}
	return shadowVerify(n, vecs, shard, opts, s, res)
}

// shadowSampleSize resolves the effective sample count for a shard of k
// faults: the configured fraction, defaulted, floored at one fault.
func shadowSampleSize(k int, sample float64) int {
	if sample == 0 {
		sample = defaultShadowSample
	}
	if sample < 0 || k == 0 {
		return 0
	}
	count := int(math.Ceil(sample * float64(k)))
	if count < 1 {
		count = 1
	}
	if count > k {
		count = k
	}
	return count
}

// shadowIndices picks the deterministic fault sample for a shard: a
// seeded partial shuffle, sorted for readable diagnostics.
func shadowIndices(k, count int, seed int64, s int) []int {
	if seed == 0 {
		seed = 1
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(s)))
	idx := r.Perm(k)[:count]
	sort.Ints(idx)
	return idx
}

// kernelDivergence is one fault's disagreement between the compiled
// kernel and the reference oracle, as recorded in diagnostic bundles.
type kernelDivergence struct {
	FaultIndex   int  `json:"fault_index"`
	Site         int  `json:"site"`
	SA1          bool `json:"sa1"`
	WantDetected int  `json:"want_detected_at"`
	GotDetected  int  `json:"got_detected_at"`
	WantCount    int  `json:"want_detections,omitempty"`
	GotCount     int  `json:"got_detections,omitempty"`
}

// shadowVerify cross-checks a completed compiled-kernel shard result
// against the reference kernel on a sampled fault subset and, on
// divergence, falls back to a full reference re-run of the shard.
func shadowVerify(n *logic.Netlist, vecs fault.VectorSeq, shard fault.SimOptions,
	opts SimOptions, s int, res *fault.Result) (*fault.Result, error) {

	if shard.Kernel != fault.KernelCompiled {
		return res, nil
	}
	count := shadowSampleSize(len(res.Faults), opts.ShadowSample)
	if count == 0 {
		return res, nil
	}
	idx := shadowIndices(len(res.Faults), count, opts.ShadowSeed, s)
	sub := make([]fault.Fault, len(idx))
	for i, ix := range idx {
		sub[i] = res.Faults[ix]
	}
	// Fault independence makes per-fault results invariant under batch
	// composition and segment length, so the sampled re-run is directly
	// comparable to the shard's slots.
	ref := shard
	ref.Faults = sub
	ref.Kernel = fault.KernelReference
	ref.Progress = nil
	ref.Sink = nil
	refRes, err := fault.Simulate(n, vecs, ref)
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d shadow check: %w", s, err)
	}
	if refRes.Interrupted {
		return res, nil // cancelled mid-check: keep the primary result
	}
	var div []kernelDivergence
	for i, ix := range idx {
		d := kernelDivergence{
			FaultIndex:   ix,
			Site:         int(res.Faults[ix].Site),
			SA1:          res.Faults[ix].SA1,
			WantDetected: int(refRes.DetectedAt[i]),
			GotDetected:  int(res.DetectedAt[ix]),
		}
		mismatch := d.WantDetected != d.GotDetected
		if res.Detections != nil {
			d.WantCount = int(refRes.Detections[i])
			d.GotCount = int(res.Detections[ix])
			mismatch = mismatch || d.WantCount != d.GotCount
		}
		if mismatch {
			div = append(div, d)
		}
	}
	if len(div) == 0 {
		return res, nil
	}

	// The compiled kernel lied about at least one sampled fault:
	// quarantine it for this shard and fall back to the oracle.
	ctrKernelDivergence.Add(1)
	obs.Emit(opts.Sink, obs.Event{
		Type: obs.EventPhase,
		Name: fmt.Sprintf("engine.sim/shard%d", s),
		Fields: map[string]any{
			"event":      "kernel.divergence",
			"sampled":    count,
			"divergent":  len(div),
			"quarantine": "reference_fallback",
		},
	})
	if opts.DiagDir != "" {
		writeDivergenceBundle(opts.DiagDir, s, count, div)
	}
	fb := shard
	fb.Kernel = fault.KernelReference
	fbRes, err := fault.Simulate(n, vecs, fb)
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d reference fallback: %w", s, err)
	}
	return fbRes, nil
}

// writeDivergenceBundle drops the divergence diagnostics as JSON for
// offline kernel debugging. Bundle writing is best-effort: a failed
// write never fails the campaign (the counters and events already
// recorded the divergence).
func writeDivergenceBundle(dir string, s, sampled int, div []kernelDivergence) {
	bundle := struct {
		Shard       int                `json:"shard"`
		Sampled     int                `json:"sampled"`
		Divergences []kernelDivergence `json:"divergences"`
	}{Shard: s, Sampled: sampled, Divergences: div}
	data, err := json.MarshalIndent(&bundle, "", "  ")
	if err != nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("kernel-divergence-shard%d.json", s))
	_ = os.WriteFile(path, append(data, '\n'), 0o644)
}
