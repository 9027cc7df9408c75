package fault

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/logic"
	"repro/internal/obs"
)

// kernel.go is the compiled cone-sweep fault-simulation kernel
// (SimOptions.Kernel == KernelCompiled, the default).
//
// The fault-free machine is simulated exactly once per segment
// (logic.GoodTrace.Extend), recording every net's settled value per
// cycle. Without a pinned SimOptions.Trace that fill runs one segment
// ahead of the fault batches on a goroutine of its own (goodFiller);
// with one (the artifact cache's complete trace) there is no fill at
// all. Each batch of up to 63×W faults (W = SimOptions.LaneWords) then
// replays the segment on a logic.ConeSim, which sweeps only the batch's
// fanout-cone logic — everything outside the cone is read from the
// trace — so a batch pays for its cone instead of the whole frame. W is
// the widest a batch gets: a part-filled one (the list's tail, and every
// batch once survivors thin out) replays on stripes of the narrowest of
// 1, 2, 4 and W words that holds it (see logic.ConeSim.BeginBatch), so
// empty lane words are not swept. A segment's batches are independent,
// so every core replays them (see segment): the caller, one helper
// goroutine per spare core and the filler while it is parked each claim
// one batch at a time. The drop/repack segmentation, detection
// bookkeeping and telemetry match simulateReference cycle for cycle;
// the differential tests in this package and kernel_equiv_test.go at the
// repo root enforce bit-identical results at every lane width.
func simulateCompiled(n *logic.Netlist, vecs VectorSeq, opts SimOptions) (*Result, error) {
	c := opts.Program
	if c == nil {
		c = logic.CompiledFor(n)
	}
	stateWords := (len(n.DFFs()) + 63) / 64
	r := newSimRun(n, vecs, opts, stateWords)
	lw := EffectiveLaneWords(opts, len(r.faults))
	nextGoodState := make([]uint64, stateWords)

	total := vecs.Len()
	sched := newSegSchedule(r.segLen, opts.SegmentLen <= 0, total)
	// claimers[0] replays batches on the caller's goroutine and the
	// filler's, when there is one, is claimers[1]: those goroutines keep
	// a core each. Helpers, one per core GOMAXPROCS has left, follow.
	claimers := []*claimer{{}}
	var fill *goodFiller
	if opts.Trace == nil && total > 0 && len(r.remaining) > 0 {
		claimers = append(claimers, &claimer{})
		fill = startGoodFiller(c, c.TraceBits(), vecs, sched, min(r.segLen, total), claimers[1])
		defer fill.close()
	}
	ownCores := len(claimers)
	var fillWait, barrierWait time.Duration
	au := newAuditor(opts, len(r.remaining), lw)

	ctrRuns.Add(1)
	span := obs.NewSpan(opts.Sink, "faultsim")
	applied := 0
	for start := 0; start < total && len(r.remaining) > 0; start = applied {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			r.res.Interrupted = true
			break
		}
		// Chaos point: a stall or crash at a segment boundary (recovered
		// and retried by engine.Simulate's call supervisor).
		if f := chaos.Maybe("fault.segment"); f != nil {
			f.PanicNow()
			f.Sleep(opts.Ctx)
		}
		end := sched.next(start)

		// The segment's good machine: the pinned trace, or the filler's
		// window, whose fill is counted here — on receipt — so a segment
		// filled but never replayed is not.
		trace := opts.Trace
		var seg logic.BatchStats
		if fill != nil {
			waitFrom := time.Now()
			g := fill.receive()
			fillWait += time.Since(waitFrom)
			if g.start != start || g.end != end {
				panic(fmt.Sprintf("fault: filler sent segment [%d, %d), want [%d, %d)", g.start, g.end, start, end))
			}
			trace = g.trace
			ctrGoodCycles.Add(int64(end - start))
			seg.Evals = g.evals
		}
		// The fault-free state entering the next segment, for survivor
		// compaction: the window's frontier after a fill, a recorded row
		// of a pinned trace.
		trace.StateInto(end, n.DFFs(), nextGoodState)

		s := &segment{r: r, prog: c, lw: lw, ctx: opts.Ctx, trace: trace, start: start, end: end, nextGood: nextGoodState, au: au}
		s.cut()
		helpers := max(0, min(runtime.GOMAXPROCS(0)-ownCores, s.batches-1))
		for len(claimers) < ownCores+helpers {
			claimers = append(claimers, &claimer{})
		}
		// A helper returns once every batch is claimed. Nothing joins it:
		// the barrier waits for every batch it claimed, and after its last
		// one it touches nothing of the run.
		for _, h := range claimers[ownCores : ownCores+helpers] {
			go s.claimAll(h)
		}
		if fill != nil && s.batches > 1 {
			fill.offer(s)
		}
		s.claimAll(claimers[0])
		waitFrom := time.Now()
		s.wait()
		barrierWait += time.Since(waitFrom)
		for _, cl := range claimers {
			seg.Add(cl.stats)
			cl.stats = logic.BatchStats{}
		}
		if fill != nil {
			fill.free <- trace
		}
		applied = end
		ctrSweepBlocks.Add(seg.Blocks)
		ctrGateEvals.Add(seg.Evals)
		ctrGateEvalsCompiled.Add(seg.Evals)
		ctrGateEvalsSaved.Add(seg.Saved)
		span.Add("gate_evals", seg.Evals)
		span.Add("gate_evals_saved", seg.Saved)
		ctrCyclesSweep.Add(seg.Cycles)
		span.Add("cycles_sweep", seg.Cycles)
		r.finishSegment(span, opts, r.drop(s.survivors()), start, end, total)
	}
	var helped int64
	for _, cl := range claimers[1:] {
		helped += cl.batches
	}
	span.Add("fill_wait_us", fillWait.Microseconds())
	span.Add("helper_batches", helped)
	span.Add("barrier_wait_us", barrierWait.Microseconds())
	span.Add("audit_windows", au.windows.Load())
	span.Add("audit_us", au.nanos.Load()/1000)
	res := r.finish(span, applied)
	if err := au.err(); err != nil {
		return nil, err
	}
	return res, nil
}

// segment is one segment's fault batches, laid out as a work list that
// every goroutine replaying them claims from, one batch at a time,
// through an atomic counter. Batches are cut from r.remaining exactly as
// a serial loop cuts them, 63×W faults in list order, so which faults
// share a batch — and with it every counter — does not depend on who
// replays what. A batch writes only its own faults' counts and
// detection cycles, its own ranges of r.remaining and r.states and its
// own kept slot; the trace window and nextGood are read-only while the
// segment is out. The barrier (wait) is the last batch finishing;
// survivors then compacts the batches' survivors in batch order.
type segment struct {
	r          *simRun
	prog       *logic.Compiled
	lw         int
	ctx        context.Context
	trace      *logic.GoodTrace
	start, end int
	nextGood   []uint64 // the fault-free state entering end
	au         *auditor // the call's window audit (audit.go)

	batches int
	next    atomic.Int64  // the next batch to claim
	pending atomic.Int64  // batches not yet finished
	done    chan struct{} // closed by whoever finishes the last batch
	kept    []int         // kept[b]: batch b's survivors, at the front of its range
	// panicked is the first batch panic recovered, re-raised by wait.
	panicked atomic.Pointer[any]
}

// cut lays out the segment's batches over the run's remaining faults.
func (s *segment) cut() {
	batchCap := 63 * s.lw
	s.batches = (len(s.r.remaining) + batchCap - 1) / batchCap
	s.pending.Store(int64(s.batches))
	s.done = make(chan struct{})
	s.kept = make([]int, s.batches)
}

// claimAll replays unclaimed batches on cl until none is left.
func (s *segment) claimAll(cl *claimer) {
	for s.claim(cl) {
	}
}

// claim replays the segment's next unclaimed batch on cl, reporting
// false when every batch has been claimed already. Once a batch has
// panicked the run is over, so later batches finish without a replay.
func (s *segment) claim(cl *claimer) bool {
	b := int(s.next.Add(1) - 1)
	if b >= s.batches {
		return false
	}
	if s.panicked.Load() == nil {
		s.replay(cl, b)
	}
	if s.pending.Add(-1) == 0 {
		close(s.done)
	}
	return true
}

// replay runs replayBatch, recovering a panic into the segment's record:
// on a helper or the filler an unrecovered panic would crash the
// process, and the caller re-raises it from wait instead.
func (s *segment) replay(cl *claimer, b int) {
	defer func() {
		if p := recover(); p != nil {
			s.panicked.CompareAndSwap(nil, &p)
		}
	}()
	s.replayBatch(cl, b)
}

// wait blocks until every batch of the segment has finished, then
// re-raises the first batch panic, if any, on the calling goroutine.
func (s *segment) wait() {
	<-s.done
	if p := s.panicked.Load(); p != nil {
		panic(*p)
	}
}

// replayBatch replays batch b over the segment on cl's ConeSim. The
// batch's survivors go to the front of its own ranges: fault indices in
// r.remaining, next-segment lane states in r.states (BeginBatch has
// copied the states it reads).
func (s *segment) replayBatch(cl *claimer, b int) {
	// Chaos point: a stalled or crashing batch, on whichever goroutine
	// claimed it (a panic reaches the caller through wait).
	if f := chaos.Maybe("fault.batch"); f != nil {
		f.PanicNow()
		f.Sleep(s.ctx)
	}
	r, batchCap := s.r, 63*s.lw
	if cl.cone == nil {
		cl.init(s.prog, s.lw)
	}
	cone, det, doneMask, liveMask := cl.cone, cl.det, cl.doneMask, cl.liveMask
	batchStart := b * batchCap
	batch := r.remaining[batchStart:min(batchStart+batchCap, len(r.remaining))]
	s.keep(&cl.audit, b, batch, batchStart)
	cl.batchFaults = cl.batchFaults[:0]
	cl.laneStates = cl.laneStates[:0]
	for li, fi := range batch {
		cl.batchFaults = append(cl.batchFaults, logic.BatchFault{
			Site: r.faults[fi].Site,
			SA1:  r.faults[fi].SA1,
		})
		cl.laneStates = append(cl.laneStates, r.states[batchStart+li])
	}
	cone.BeginBatch(cl.batchFaults, s.trace, s.start, cl.laneStates)
	nw := (len(batch) + 62) / 63
	for w := 0; w < nw; w++ {
		lanes := len(batch) - w*63
		if lanes > 63 {
			lanes = 63
		}
		liveMask[w] = uint64(1)<<uint(lanes+1) - 2 // lanes 1..lanes
		doneMask[w] = 0
	}
	done := 0
	for cyc := s.start; cyc < s.end; cyc++ {
		cone.Cycle(cyc, det)
		for w := 0; w < nw; w++ {
			diff := det[w] & liveMask[w] &^ doneMask[w]
			if diff == 0 {
				continue
			}
			for lane := uint(1); lane <= 63; lane++ {
				if diff>>lane&1 == 0 {
					continue
				}
				fi := batch[w*63+int(lane)-1]
				r.counts[fi]++
				if r.res.DetectedAt[fi] < 0 {
					r.res.DetectedAt[fi] = int32(cyc)
				}
				if r.counts[fi] >= int32(r.ndet) {
					doneMask[w] |= 1 << lane
					done++
					// The lane's result is final; retiring it lets
					// its divergence die out so later cycles pay
					// only for the still-live faults.
					cone.RetireLane(w, lane)
				}
			}
		}
		if done == len(batch) {
			// Whole batch done: no lane survives, so no lane
			// state will be read — safe to abandon the
			// segment replay early.
			break
		}
		cone.Clock()
	}
	kept := 0
	for li, fi := range batch {
		if r.counts[fi] >= int32(r.ndet) {
			continue
		}
		// Out-of-cone DFFs never diverge, so the lane state is the good
		// next state overlaid with the cone's flip-flops. kept <= li: the
		// slot written was read by BeginBatch or is this lane's own.
		cone.LaneStateInto(li/63, uint(1+li%63), s.nextGood, r.states[batchStart+kept])
		batch[kept] = fi
		kept++
	}
	s.kept[b] = kept
	cl.stats.Add(cone.EndBatch())
	cl.batches++
	s.audit(&cl.audit, b)
}

// survivors moves each batch's survivors, in batch order, to the front
// of r.remaining and r.states — the serial loop's compaction (see
// simRun.sweep), run after the barrier — and returns them.
func (s *segment) survivors() []int {
	r, batchCap := s.r, 63*s.lw
	n := 0
	for b, k := range s.kept {
		if from := b * batchCap; from != n {
			copy(r.remaining[n:], r.remaining[from:from+k])
			for j := 0; j < k; j++ {
				copy(r.states[n+j], r.states[from+j])
			}
		}
		n += k
	}
	return r.remaining[:n]
}

// claimer is what one goroutine needs to replay batches: a ConeSim and
// its scratch, built at its first batch, and the cost of the batches it
// replayed — stats for the current segment, batches for the run.
type claimer struct {
	cone                    *logic.ConeSim
	batchFaults             []logic.BatchFault
	laneStates              [][]uint64
	det, doneMask, liveMask []uint64
	stats                   logic.BatchStats
	batches                 int64
	audit                   windowAudit
}

func (cl *claimer) init(prog *logic.Compiled, lw int) {
	cl.cone = logic.NewConeSim(prog, lw)
	cl.batchFaults = make([]logic.BatchFault, 0, 63*lw)
	cl.laneStates = make([][]uint64, 0, 63*lw)
	cl.det = make([]uint64, lw)
	cl.doneMask = make([]uint64, lw)
	cl.liveMask = make([]uint64, lw)
}

// segSchedule walks the compiled kernel's segment boundaries. Results are
// segment-length-invariant (every cycle of every batch replay checks
// detection), so segment length is purely a scheduling choice. Short
// early segments repack survivors while coverage ramps steeply —
// detected faults stop occupying batch lanes within tens of cycles
// instead of replaying a full 1024-cycle frame — and the length doubles
// toward segLen as drops become rare. An explicit SimOptions.SegmentLen
// pins the boundaries (the differential fuzz tests rely on that to align
// both kernels' telemetry). The schedule depends on nothing a run
// computes, so the filler and the batch loop each walk a copy of it.
type segSchedule struct {
	cur, max, total int
}

func newSegSchedule(segLen int, adaptive bool, total int) segSchedule {
	s := segSchedule{cur: segLen, max: segLen, total: total}
	if adaptive {
		s.cur = min(segLen, 64)
	}
	return s
}

// next returns the end of the segment starting at start and advances
// the schedule.
func (s *segSchedule) next(start int) int {
	end := min(start+s.cur, s.total)
	s.cur = min(2*s.cur, s.max)
	return end
}

// goodSegment is a filled segment [start, end) of the fault-free
// machine, handed from the filler to the batch loop in trace.
type goodSegment struct {
	start, end int
	trace      *logic.GoodTrace
	evals      int64 // instructions the fill executed
}

// goodFiller simulates the fault-free machine one segment ahead of the
// batch loop, on a goroutine of its own, alternating between two trace
// windows: while the batches replay segment k from one, it fills
// segment k+1 into the other. Each window has one writer at a time —
// the filler fills only a window it took from free, and the batch loop
// hands a window back only once it is done reading it. While it waits
// for a window the filler replays batches of the segment being replayed
// (see park), and once every vector is filled it does so until the run
// ends.
type goodFiller struct {
	segs chan goodSegment // filled segments in schedule order; closed if the filler panics
	// free holds the windows the batch loop is done with: a slot per
	// window, so handing one back never blocks.
	free chan *logic.GoodTrace
	// help holds the segment the batch loop last offered, for the filler
	// to replay batches of while it is parked.
	help    chan *segment
	claimer *claimer
	stop    chan struct{} // closed when the batch loop stops
	done    chan struct{} // closed when the filler has exited
	// panicked is the filler's recovered panic, written before segs is
	// closed, so a receive that finds segs closed may read it.
	panicked any
}

// startGoodFiller starts a filler whose two windows hold window cycles
// of rows bits bits wide (c.TraceBits, or wider).
func startGoodFiller(c *logic.Compiled, bits int, vecs VectorSeq, sched segSchedule, window int, cl *claimer) *goodFiller {
	f := &goodFiller{
		segs:    make(chan goodSegment, 1),
		free:    make(chan *logic.GoodTrace, 2),
		help:    make(chan *segment, 1),
		claimer: cl,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	f.free <- logic.NewGoodTrace(bits, window)
	f.free <- logic.NewGoodTrace(bits, window)
	go f.run(c, vecs, sched)
	return f
}

func (f *goodFiller) run(c *logic.Compiled, vecs VectorSeq, sched segSchedule) {
	defer close(f.done)
	defer func() {
		if p := recover(); p != nil {
			f.panicked = p
			close(f.segs)
		}
	}()
	var prev *logic.GoodTrace
	for start := 0; start < sched.total; {
		end := sched.next(start)
		tr := f.park(f.free)
		if tr == nil {
			return
		}
		// A batch loop that has stopped may still have handed a window
		// back; do not fill it.
		select {
		case <-f.stop:
			return
		default:
		}
		tr.Window(start, end-start)
		if prev != nil {
			// Resume from the previous window's frontier. The batch loop
			// may be reading that window too; neither side writes it.
			tr.SetFrontier(prev.Frontier())
		}
		evals := tr.Extend(c, end, vecs.At)
		select {
		case <-f.stop:
			return
		case f.segs <- goodSegment{start: start, end: end, trace: tr, evals: evals}:
		}
		prev, start = tr, end
	}
	f.park(nil)
}

// park waits for a window on free — with free nil, for the run to stop —
// and meanwhile replays batches of the segment the batch loop offered.
// It claims one batch at a time and looks for a window between batches,
// so a window that comes back waits for one batch at most: the fill
// keeps its core. It returns nil once the batch loop has stopped.
func (f *goodFiller) park(free chan *logic.GoodTrace) *logic.GoodTrace {
	var s *segment
	for {
		select {
		case tr := <-free:
			return tr
		default:
		}
		if s != nil && s.claim(f.claimer) {
			continue
		}
		s = nil
		select {
		case <-f.stop:
			return nil
		case tr := <-free:
			return tr
		case s = <-f.help:
		}
	}
}

// offer hands the filler the segment being replayed, replacing one it
// has not picked up. The batch loop is the only sender, so once drained
// the slot is free and the send does not block.
func (f *goodFiller) offer(s *segment) {
	select {
	case <-f.help:
	default:
	}
	f.help <- s
}

// receive returns the next filled segment, re-raising on the caller's
// goroutine a panic the filler recovered.
func (f *goodFiller) receive() goodSegment {
	g, ok := <-f.segs
	if !ok {
		panic(f.panicked)
	}
	return g
}

// close stops the filler and waits for it to exit, so no VectorSeq.At
// call outlives the run.
func (f *goodFiller) close() {
	close(f.stop)
	<-f.done
}

// EffectiveLaneWords reports the widest stripe a compiled-kernel run
// with these options uses on a fault list of the given size — a full
// batch's width; part-filled batches run narrower (see
// simulateCompiled): the explicit LaneWords clamped to
// logic.MaxLaneWords, or the automatic width when unset. Benchmarks use
// it to label results with the width that actually ran.
func EffectiveLaneWords(opts SimOptions, numFaults int) int {
	lw := opts.LaneWords
	if lw <= 0 {
		lw = autoLaneWords(numFaults)
	}
	if lw > logic.MaxLaneWords {
		lw = logic.MaxLaneWords
	}
	return lw
}

// autoLaneWords picks the default ConeSim stripe width from the fault
// list size. One word handles a 63-fault list outright; wider stripes
// only pay once enough faults exist to fill them. The thresholds follow
// a width sweep on the Table-1 campaign (docs/PERFORMANCE.md): width 8
// won on full-circuit fault lists (and width 16 regressed — the generic
// stripe loop loses what the extra lanes amortize), widths 2 and 4
// cover the mid range.
func autoLaneWords(faults int) int {
	switch {
	case faults <= 63:
		return 1
	case faults <= 63*4:
		return 2
	case faults <= 63*8:
		return 4
	default:
		return 8
	}
}

// FillGoodTrace records the fault-free machine's trace for vecs into
// trace through cycle end (clamped to the sequence length), resuming
// from whatever prefix is already recorded. The engine uses it to
// complete a shared artifact trace once, before the call starts — after
// which every run on the same (design, vectors) pair replays with zero
// good-machine cycles.
func FillGoodTrace(n *logic.Netlist, prog *logic.Compiled, vecs VectorSeq, trace *logic.GoodTrace, end int) {
	if end > vecs.Len() {
		end = vecs.Len()
	}
	if trace.ValidThrough() >= end {
		return
	}
	if prog == nil {
		prog = logic.CompiledFor(n)
	}
	trace.EnsureCycles(end)
	ctrGoodCycles.Add(int64(end - trace.ValidThrough()))
	ctrGateEvals.Add(trace.Extend(prog, end, vecs.At))
}
