package fault

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Default-registry counters for the simulator's hot loop. Handles are
// cached once; each segment costs a handful of atomic adds.
var (
	ctrRuns    = obs.Default().Counter("faultsim.runs")
	ctrVectors = obs.Default().Counter("faultsim.vectors")
	ctrDropped = obs.Default().Counter("faultsim.faults_dropped")
	// Gate-evaluation accounting (see docs/PERFORMANCE.md): gate_evals
	// counts evaluations actually executed; gate_evals_saved counts the
	// evaluations a full-frame sweep per batch cycle would have executed
	// on top of the cone sweep's. The reference kernel counts whole
	// gates, the compiled kernel counts compiled instructions (variadic
	// gates span several) — comparable to within the decomposition factor.
	ctrGateEvals      = obs.Default().Counter("faultsim.gate_evals")
	ctrGateEvalsSaved = obs.Default().Counter("faultsim.gate_evals_saved")
	// good_cycles counts fault-free machine cycles actually simulated to
	// fill a GoodTrace — zero when a run replays a trace recorded by an
	// earlier run (the artifact-cache hit path, see internal/artifacts).
	ctrGoodCycles = obs.Default().Counter("faultsim.good_cycles")
	// sweep_blocks counts the cache blocks of the sweep programs the
	// compiled kernel's batch-cycles ran (see logic.BlockSlots).
	ctrSweepBlocks = obs.Default().Counter("faultsim.sweep_blocks")

	// Per-kernel split of the same gate-evaluation tally, exposed on
	// /v1/metrics so a mixed fleet can attribute load to the kernel that
	// executed it.
	famKernelGateEvals = obs.Default().CounterFamily("sbst_kernel_gate_evals_total",
		"Gate evaluations executed, by simulation kernel.", "kernel")
	ctrGateEvalsRef      = famKernelGateEvals.Counter("reference")
	ctrGateEvalsCompiled = famKernelGateEvals.Counter("compiled")

	// The compiled kernel's batch-cycles, each one run of the batch's
	// cone sweep program (see logic.ConeSim); "sweep" is the one mode.
	famKernelCycles = obs.Default().CounterFamily("sbst_kernel_cycles_total",
		"Compiled-kernel batch-cycles, by the mode that settled them.", "mode")
	ctrCyclesSweep = famKernelCycles.Counter("sweep")
)

// Which stripe kernels the compiled kernel's cone sweep runs on in this
// process: an info gauge, 1 on the one label value that applies.
func init() {
	obs.Default().GaugeFamily("sbst_kernel_simd_info",
		"Instruction set of the compiled kernel's dense-path stripe runners: avx2 (assembly) or none (portable Go).",
		"isa").Gauge(logic.SweepISA()).Set(1)
}

// Kernel selects the simulation engine backing Simulate.
type Kernel int

const (
	// KernelCompiled (the default) runs the compiled cone-sweep kernel
	// with good-machine caching: the fault-free machine is simulated
	// once per segment into a logic.GoodTrace, and each 63-fault batch
	// replays only its fanout-cone logic against the trace
	// (logic.ConeSim). Bit-identical to KernelReference.
	KernelCompiled Kernel = iota
	// KernelReference runs the full-sweep kernel on logic.CompiledSim:
	// the whole compiled program, every cycle, every 63-fault batch, on
	// the compiled kernel's segment driver. It is the oracle, so it is not
	// audited (SimOptions.ShadowSample), and it fills its own trace with
	// its own program, ignoring SimOptions.Trace and Program. It stays for
	// three callers that cannot move yet: the engine's quarantine re-run,
	// kernel_diff_test.go and the benchmark's oracle sample
	// (bench/kernel.go); see ROADMAP item 14(d).
	KernelReference
)

// VectorSeq supplies one primary-input assignment per clock cycle.
// Bit i of At(cycle) drives Netlist.Inputs()[i]; circuits with more than
// 64 primary inputs are not supported by the simulator.
//
// Within one Simulate call At is called by one goroutine at a time, but
// that goroutine need not be the caller's: the compiled kernel fills the
// fault-free machine on a goroutine of its own, so At may run while
// SimOptions.Progress runs. Simulate returns only after its last At
// call. A panic in At reaches Simulate's caller.
type VectorSeq interface {
	Len() int
	At(cycle int) uint64
}

// Vectors is the simplest VectorSeq: a pre-expanded slice.
type Vectors []uint64

// Len returns the number of cycles.
func (v Vectors) Len() int { return len(v) }

// At returns the packed input assignment for a cycle.
func (v Vectors) At(i int) uint64 { return v[i] }

// SimOptions tune Simulate.
type SimOptions struct {
	// Faults to simulate. Nil means the collapsed full fault list.
	Faults []Fault
	// SegmentLen is the number of cycles between drop/repack boundaries.
	// Zero selects the default (1024).
	SegmentLen int
	// NDetect keeps simulating each fault until it has produced an
	// output difference in NDetect distinct cycles (or the vectors run
	// out), filling Result.Detections — the n-detect test-quality
	// metric. Zero or one selects ordinary first-detection dropping.
	NDetect int
	// Progress, when non-nil, is called after each segment with the
	// number of cycles consumed and faults detected so far.
	Progress func(cycles, detected, remaining int)
	// Sink, when non-nil, receives a structured event stream: one
	// obs.EventSegment per drop/repack boundary (fields done, total,
	// detected, remaining, coverage) and a final obs.EventSummary, plus
	// a "faultsim" span whose end carries wall time and counters. It
	// subsumes Progress for machine consumers.
	Sink obs.Sink
	// Ctx, when non-nil, is polled at segment boundaries: once
	// cancelled, the run stops early and returns the partial Result
	// with Interrupted set (no error), so callers can still report the
	// coverage reached before a SIGINT or deadline.
	Ctx context.Context
	// Kernel selects the simulation engine; the zero value is the
	// compiled cone-sweep kernel. Both kernels produce bit-identical
	// Results.
	Kernel Kernel
	// LaneWords widens the compiled kernel's fault batches to 63 ×
	// LaneWords faults per cone replay (logic.ConeSim value stripes of
	// LaneWords uint64 words per net). Zero auto-tunes from the fault
	// list size; values clamp to [1, logic.MaxLaneWords]. Results are
	// bit-identical at every width; the reference kernel ignores it.
	LaneWords int
	// Program, when non-nil, is a pre-compiled program for the netlist —
	// the content-addressed artifact reuse path (internal/artifacts).
	// Nil compiles on demand via logic.CompiledFor's per-netlist memo.
	Program *logic.Compiled
	// Trace, when non-nil, is a complete good-machine trace for exactly
	// this (netlist, vector sequence) pair: every cycle of the sequence
	// recorded, addressed by absolute cycle (see FillGoodTrace). The run
	// replays it read-only and simulates no fault-free cycle, so one
	// trace is safe to share across concurrent runs. Simulate rejects a
	// trace that records fewer cycles than the sequence has. The caller
	// owns the pairing guarantee: a trace from different vectors
	// silently corrupts results. Nil fills a run-local trace one segment
	// ahead of the fault batches.
	Trace *logic.GoodTrace
	// ShadowSample is the fraction of the compiled kernel's windows the
	// call audits (audit.go). A window is one lane word, up to 63 faults,
	// of one batch over one segment; an audited one is replayed again on a
	// logic.CompiledSim and must agree on every lane's detection cycles,
	// count and exit state. 1 audits every window, a negative value none,
	// and zero selects the default: defaultShadowSample of the windows,
	// plus one window of the first segment so every call is audited. On a
	// disagreement Simulate returns a *DivergenceError once the run ends.
	// KernelReference, the oracle, is not audited.
	ShadowSample float64
	// ShadowSeed seeds which windows are audited (0 = 1).
	ShadowSeed int64
}

// Result reports a fault simulation run.
type Result struct {
	// Faults is the simulated fault list (collapsed representatives).
	Faults []Fault
	// DetectedAt[i] is the 0-based cycle where Faults[i] first produced
	// an output difference, or -1 if it was never detected.
	DetectedAt []int32
	// Detections[i] counts the distinct cycles with an output difference
	// for Faults[i], saturated at SimOptions.NDetect. Nil unless NDetect
	// was requested.
	Detections []int32
	// Cycles is the total number of vectors applied (less than the
	// sequence length when the run was interrupted).
	Cycles int
	// Interrupted reports that SimOptions.Ctx was cancelled before the
	// vector sequence was exhausted; the other fields describe the
	// partial run.
	Interrupted bool
}

// NDetectCoverage returns the fraction of faults detected in at least n
// distinct cycles (requires a run with SimOptions.NDetect >= n).
func (r *Result) NDetectCoverage(n int) float64 {
	if len(r.Faults) == 0 || r.Detections == nil {
		return 0
	}
	c := 0
	for _, d := range r.Detections {
		if int(d) >= n {
			c++
		}
	}
	return float64(c) / float64(len(r.Faults))
}

// Detected counts detected faults.
func (r *Result) Detected() int {
	d := 0
	for _, c := range r.DetectedAt {
		if c >= 0 {
			d++
		}
	}
	return d
}

// Coverage returns detected/total over the simulated fault list.
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return float64(r.Detected()) / float64(len(r.Faults))
}

// DetectedBy counts faults detected at or before the given cycle,
// enabling coverage-vs-test-length curves from a single run.
func (r *Result) DetectedBy(cycle int) int {
	d := 0
	for _, c := range r.DetectedAt {
		if c >= 0 && int(c) <= cycle {
			d++
		}
	}
	return d
}

// CoverageAt returns the coverage achieved by the given cycle.
func (r *Result) CoverageAt(cycle int) float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return float64(r.DetectedBy(cycle)) / float64(len(r.Faults))
}

// FirstCycleReaching returns the earliest cycle by which at least k
// faults are detected, or -1 if the run never reaches k.
func (r *Result) FirstCycleReaching(k int) int {
	if k <= 0 {
		return 0
	}
	// Collect detection cycles and select the k-th smallest — O(n)
	// expected, versus sorting the whole list per query.
	cycles := make([]int32, 0, len(r.DetectedAt))
	for _, c := range r.DetectedAt {
		if c >= 0 {
			cycles = append(cycles, c)
		}
	}
	if len(cycles) < k {
		return -1
	}
	return int(quickselect(cycles, k-1))
}

// quickselect returns the k-th smallest (0-based) element of s,
// partitioning in place. Hoare partition with median-of-three pivoting;
// expected linear time.
func quickselect(s []int32, k int) int32 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot, placed at s[lo].
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if s[i] >= pivot {
					break
				}
			}
			for {
				j--
				if s[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		// Hoare invariant: s[lo..j] <= pivot <= s[j+1..hi].
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return s[lo]
}

// RegionCoverage returns detected and total counts restricted to faults
// whose site lies inside the named region.
func (r *Result) RegionCoverage(n *logic.Netlist, region string) (detected, total int) {
	nets := n.RegionNets(region)
	inRegion := make(map[logic.NetID]bool, len(nets))
	for _, id := range nets {
		inRegion[id] = true
	}
	for i, f := range r.Faults {
		if !inRegion[f.Site] {
			continue
		}
		total++
		if r.DetectedAt[i] >= 0 {
			detected++
		}
	}
	return detected, total
}

// Simulate runs sequential stuck-at fault simulation of the vector
// sequence against the netlist, starting every machine (good and faulty)
// from the all-zero flip-flop state, on the kernel selected by
// opts.Kernel (the compiled cone-sweep kernel by default; both kernels
// produce bit-identical results).
func Simulate(n *logic.Netlist, vecs VectorSeq, opts SimOptions) (*Result, error) {
	if len(n.Inputs()) > 64 {
		return nil, fmt.Errorf("fault: %d primary inputs exceed the 64 supported", len(n.Inputs()))
	}
	if t := opts.Trace; t != nil && t.ValidThrough() < vecs.Len() {
		return nil, fmt.Errorf("fault: SimOptions.Trace records %d of %d cycles", t.ValidThrough(), vecs.Len())
	}
	r := newSimRun(n, vecs, opts, (len(n.DFFs())+63)/64)
	var m laneModel
	if opts.Kernel == KernelReference {
		// The oracle fills its own trace with its own program, so the
		// engine's quarantine re-run reads none of the artifacts it falls
		// back from.
		opts.Trace, opts.Program = nil, nil
		m = stuckAt(r.faults)
	}
	return simulateSegments(n, vecs, opts, r, m)
}

// simRun is the kernel-independent run state: the fault list, result
// accumulators and the per-fault saved DFF state, survivor-compacted at
// each segment boundary.
type simRun struct {
	faults []Fault // nil for a model other than stuck-at
	segLen int
	ndet   int
	res    *Result
	counts []int32

	// states[k] is the saved DFF state at the current segment boundary
	// of fault remaining[k], all slices carved from one flat backing
	// allocation. Survivors are compacted to the front of the array at
	// each boundary, so detected faults stop carrying state and late
	// segments touch a shrinking prefix of the backing memory.
	states [][]uint64
	// remaining holds the indices of the faults still undetected.
	remaining []int
}

// newSimRun returns the stuck-at run state of opts.Faults, or of the
// collapsed fault list when that is nil.
func newSimRun(n *logic.Netlist, vecs VectorSeq, opts SimOptions, stateWords int) *simRun {
	faults := opts.Faults
	if faults == nil {
		faults, _ = Collapse(n, AllFaults(n))
	}
	r := newLaneRun(len(faults), vecs.Len(), opts.SegmentLen, opts.NDetect, stateWords)
	r.faults, r.res.Faults = faults, faults
	return r
}

// newLaneRun returns the run state of nf faults of any model over
// cycles vectors, segLen and ndetect read as SimOptions.SegmentLen and
// SimOptions.NDetect.
func newLaneRun(nf, cycles, segLen, ndetect, stateWords int) *simRun {
	if segLen <= 0 {
		segLen = 1024
	}
	res := &Result{DetectedAt: make([]int32, nf), Cycles: cycles}
	for i := range res.DetectedAt {
		res.DetectedAt[i] = -1
	}
	counts := make([]int32, nf)
	if ndetect > 1 {
		res.Detections = counts
	}
	backing := make([]uint64, nf*stateWords)
	states := make([][]uint64, nf)
	for i := range states {
		states[i] = backing[i*stateWords : (i+1)*stateWords : (i+1)*stateWords]
	}
	remaining := make([]int, nf)
	for i := range remaining {
		remaining[i] = i
	}
	return &simRun{
		segLen:    segLen,
		ndet:      max(ndetect, 1),
		res:       res,
		counts:    counts,
		states:    states,
		remaining: remaining,
	}
}

// finishSegment keeps segment [start, end)'s survivors as the remaining
// faults and reports the segment: seg is what its fill and batches cost,
// kernel the gate-evaluation counter of the kernel that ran them. A run
// of a model other than stuck-at (r.faults nil) moves no counter.
func (r *simRun) finishSegment(span *obs.Span, opts SimOptions, survivors []int, seg logic.BatchStats, kernel *obs.Counter, start, end, total int) {
	dropped := len(r.remaining) - len(survivors)
	r.remaining = survivors
	if r.faults != nil {
		ctrVectors.Add(int64(end - start))
		ctrDropped.Add(int64(dropped))
		ctrSweepBlocks.Add(seg.Blocks)
		ctrGateEvals.Add(seg.Evals)
		kernel.Add(seg.Evals)
		ctrGateEvalsSaved.Add(seg.Saved)
		ctrCyclesSweep.Add(seg.Cycles)
	}
	span.Add("vectors", int64(end-start))
	span.Add("faults_dropped", int64(dropped))
	span.Add("gate_evals", seg.Evals)
	span.Add("gate_evals_saved", seg.Saved)
	span.Add("cycles_sweep", seg.Cycles)
	if opts.Progress != nil {
		opts.Progress(end, len(r.faults)-len(r.remaining), len(r.remaining))
	}
	span.Event(obs.EventSegment, map[string]any{
		"done":      end,
		"total":     total,
		"detected":  len(r.faults) - len(r.remaining),
		"remaining": len(r.remaining),
		"coverage":  safeRatio(len(r.faults)-len(r.remaining), len(r.faults)),
	})
}

// finish emits the run summary and returns the result.
func (r *simRun) finish(span *obs.Span, applied int) *Result {
	if r.res.Interrupted {
		r.res.Cycles = applied
	}
	span.Event(obs.EventSummary, map[string]any{
		"cycles":      r.res.Cycles,
		"faults":      len(r.faults),
		"detected":    r.res.Detected(),
		"coverage":    r.res.Coverage(),
		"interrupted": r.res.Interrupted,
	})
	span.End()
	return r.res
}

// simulateModel runs nf faults of model m over vecs on the segment
// driver, quietly (see simulateSegments), and returns each fault's first
// detection cycle, or -1. segLen is read as SimOptions.SegmentLen.
func simulateModel(n *logic.Netlist, vecs VectorSeq, m laneModel, nf, segLen int) ([]int32, error) {
	if len(n.Inputs()) > 64 {
		return nil, fmt.Errorf("fault: %d primary inputs exceed the 64 supported", len(n.Inputs()))
	}
	r := newLaneRun(nf, vecs.Len(), segLen, 1, (len(n.DFFs())+63)/64)
	res, err := simulateSegments(n, vecs, SimOptions{SegmentLen: segLen}, r, m)
	if err != nil {
		return nil, err
	}
	return res.DetectedAt, nil
}

// laneModel is a fault model as a perturbation of a logic.CompiledSim's
// lanes, in which lane k+1 carries fault batch[k] of the model's list.
type laneModel interface {
	// load pins the batch's permanent faults once its lanes are loaded.
	load(w *logic.CompiledSim, batch []int)
	// act pins, after cycle's free settle, the sites that act in that
	// cycle and reports whether it pinned any. replayLanes then settles
	// again, strobes, and unpins before the clock edge, so a model pins
	// either in load or in act.
	act(w *logic.CompiledSim, batch []int, cycle int) bool
}

// stuckAt is the stuck-at model: every fault is pinned for the whole
// replay.
type stuckAt []Fault

func (m stuckAt) load(w *logic.CompiledSim, batch []int) {
	for k, fi := range batch {
		w.Inject(m[fi].Site, m[fi].SA1, uint(k+1))
	}
}

func (stuckAt) act(*logic.CompiledSim, []int, int) bool { return false }

// replayLanes replays up to 63 faults of model m, batch[k] in lane k+1,
// over the cycles vecs drives (vecs[i] is cycle start+i) on w, the
// full-sweep simulator: lane 0 is the good machine entering in state
// good, lane k+1 enters in states[k]. After every strobe hit(k, cycle)
// is called for each lane k not yet done whose outputs differ from lane
// 0's, and says whether the lane is now done. The replay stops at the
// strobe that leaves every lane done. It returns the cycles run and
// leaves every lane's exit state in w. The segment driver's CompiledSim
// replayer (segment.replayCompiled) and the compiled kernel's audit
// (audit.go) both replay through it.
func replayLanes(w *logic.CompiledSim, inputs []logic.NetID, m laneModel, batch []int, good []uint64, states [][]uint64,
	start int, vecs []uint64, hit func(k, cycle int) bool) int {
	w.Reset()
	w.SetLaneState(0, good)
	for k := range batch {
		w.SetLaneState(uint(k+1), states[k])
	}
	m.load(w, batch)
	w.ApplyInjectionsToValues()
	var done uint64
	live := uint64(1)<<uint(len(batch)+1) - 2 // lanes 1..len
	return stepLanes(w, inputs, Vectors(vecs), func(rc int) bool {
		if m.act(w, batch, start+rc) {
			w.ApplyInjectionsToValues()
			w.Settle()
			w.ClearInjections()
		}
		for diff := w.OutputDiff() & live &^ done; diff != 0; diff &= diff - 1 {
			lane := bits.TrailingZeros64(diff)
			if hit(lane-1, start+rc) {
				done |= 1 << uint(lane)
			}
		}
		return done != live
	})
}

// stepLanes drives vecs through w from the state its lanes hold, one
// cycle at a time: it sets the inputs, settles, and hands the settled
// frame to frame before the clock edge — the strobe point testers and
// the fault simulator share. The run ends after the settle at which
// frame returns false. It returns the cycles settled.
func stepLanes(w *logic.CompiledSim, inputs []logic.NetID, vecs VectorSeq, frame func(cyc int) bool) int {
	for cyc := 0; cyc < vecs.Len(); cyc++ {
		v := vecs.At(cyc)
		for b, in := range inputs {
			w.SetInput(in, v>>uint(b)&1 == 1)
		}
		w.Settle()
		if !frame(cyc) {
			return cyc + 1
		}
		w.ClockAfterSettle()
	}
	return vecs.Len()
}

func safeRatio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
