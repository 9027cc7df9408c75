package logic

import (
	"fmt"
	"math/bits"

	"repro/internal/chaos"
)

// eventsim.go is the event-driven half of the compiled fault-simulation
// kernel. The fault simulator runs the fault-free machine once per
// segment (recording every net's value per cycle into a GoodTrace) and
// then replays each fault batch through an EventSim, which tracks only
// *divergence from the good machine*: per cycle the sole sources of
// divergence are the injected sites and flip-flops whose state already
// diverged, so the simulator seeds those and propagates XOR-difference
// words through the batch's fanout cone. A net whose recomputed value
// matches the good machine stops the propagation (the fault effect is
// blocked), so each batch cycle costs the size of the live fault-effect
// region — usually a sliver of the circuit — rather than a full frame
// sweep. Absolute values are never materialized; a gate evaluation
// reconstructs its operands as good-trace bit ⊕ difference on demand.
//
// This is the classic PROOFS-style observation that makes event-driven
// fault simulation pay off under pseudorandom vectors: almost every net
// *toggles* every cycle (so change-driven scheduling saves nothing),
// but almost no net *diverges* from the good machine.
//
// A batch spans laneWords (W) 64-bit words per net — bit 0 of every
// word is kept clear (the good machine lives in the trace), so one
// batch carries up to W×63 faults. Per-net stamps, the event bitmap and
// the cone structure are shared across the W words: one scheduling
// decision, one operand reconstruction dispatch and one sweep
// instruction dispatch amortize over the whole stripe, which is where
// widening the batch beats running W separate 63-fault batches (their
// cones largely overlap, so the union cone is far smaller than W
// disjoint replays).

// MaxLaneWords bounds EventSim stripe width. Memory per simulator grows
// linearly with it; the useful range tops out well below this (see
// docs/PERFORMANCE.md for the measured sweep).
const MaxLaneWords = 16

// BatchFault is one stuck-at injection for an EventSim batch; the fault
// at index i of BeginBatch's slice occupies word i/63, lane 1 + i%63.
type BatchFault struct {
	Site NetID
	SA1  bool
}

// DefaultSweepThreshold is the fraction of the batch's sweep program
// (its stripe instructions) an event-driven settle may execute before
// the cycle abandons event scheduling and runs the cone sweep instead.
// The event path costs several times more per instruction than the
// sweep (scattered operand reconstruction and worklist bookkeeping
// versus a linear pass over a compacted program), so the break-even
// sits well below 1.0; 0.2 was measured on the gate-level DSP core,
// where 0.1–0.3 read the same (see docs/PERFORMANCE.md).
const DefaultSweepThreshold = 0.2

// A batch in sweep mode retries event scheduling after sweepRetryMin
// consecutive sweep cycles: divergence decays as faults are detected and
// retired, so a batch that went dense usually becomes sparse again. A
// retry that fails (the pass is abandoned again, at up to the
// threshold's share of a sweep) doubles the wait, up to sweepRetryMax,
// so a batch whose divergence is not decaying stops paying for it; a
// cycle the event path settles, or a cone rebuilt around fewer faults,
// resets the wait.
const (
	sweepRetryMin = 8
	sweepRetryMax = 128
)

// EventSim replays one fault batch per segment against a GoodTrace.
// Usage per batch: BeginBatch, then per cycle Cycle followed by Clock,
// then LaneStateInto per surviving lane and EndBatch.
type EventSim struct {
	c     *Compiled
	maxLW int // lane words per stripe the arrays are sized for (W)
	lw    int // lane words per stripe of the current batch (see BeginBatch)

	// Per-net injection mask stripes (sa0[net*lw+w]; real nets only —
	// the final instruction of a chain is the only masked one).
	sa0      []uint64
	sa1      []uint64
	injected []NetID

	// diff[net*lw : net*lw+lw] is the XOR divergence stripe from the
	// good machine, valid only while divStamp[net] == cyc (stamps make
	// per-cycle reset O(1); one stamp covers the whole stripe).
	diff     []uint64
	divStamp []uint64
	cyc      uint64

	// tmpAbs holds absolute value stripes for the temporary slots of the
	// chain currently being evaluated (indices >= numNets only).
	tmpAbs []uint64

	// Scratch stripes for the multi-word event path: the value being
	// computed and up to three reconstructed operands.
	vBuf []uint64
	ob0  []uint64
	ob1  []uint64
	ob2  []uint64

	// Batch membership is epoch-stamped so teardown is O(1).
	epoch     uint32
	rEpoch    []uint32 // net reachable from an injected site
	combEpoch []uint32 // reachable and combinational (eligible for queueing)

	// bm is the event scheduler: one bit per schedule position
	// (Compiled.orderPos), set when the gate at that position must be
	// re-evaluated this cycle. Word-order scanning visits gates in
	// topological order, marking a reader is a single OR (idempotent, so
	// no dedup state), and a settled cycle leaves the bitmap zero.
	bm []uint64

	trace *GoodTrace
	row   []uint64 // trace row of the cycle being settled
	rAll  []NetID  // every reachable net (BFS order)
	rWork []NetID  // reachable combinational nets, topological order
	rDFF  []int32  // ordinals into Netlist.DFFs of reachable flip-flops
	qDiff []uint64 // per-rDFF state divergence stripes (stride lw)
	rOut  []int32  // ordinals into Netlist.Outputs of reachable outputs
	sites []NetID
	// laneSite[i] is fault i's injection site (word i/63, lane 1+i%63),
	// for RetireLane.
	laneSite []NetID
	// Lane retirement bookkeeping: retired[w] is word w's lane bitmask,
	// and when liveCount falls to shrinkAt the cone is rebuilt from the
	// live sites at the next Cycle (pendingShrink defers the rebuild so
	// it never lands between a Cycle and its Clock).
	retired       []uint64
	liveCount     int
	shrinkAt      int
	pendingShrink bool

	// Sweep mode: a compacted copy of the cone's instruction chains in
	// topological order, evaluated over absolute value stripes (swVals)
	// at full-sweep speed when divergence is too dense for event
	// scheduling to pay. bound lists the sweep's read-only frontier —
	// nets read by cone instructions, cone flip-flop D pins or the
	// detection scan but computed outside the cone — reseeded from the
	// good trace each sweep cycle; bEpoch dedups it. Injection masks are
	// fused into the program: an injected site's chain is followed by one
	// opMaskWord per stripe word that carries a mask bit, reading that
	// word of the site's two mask stripes — ^sa0 then sa1, in slots
	// appended after the compiled ones (maskSlot maps site → first slot
	// while maskSlotEpoch matches; RetireLane edits them in place) — so a
	// sweep cycle is pure straight-line execution. swD and swOut are the
	// slots holding each rDFF's D value and each rOut's output value once
	// buffers are copy-propagated away; swEvals is one sweep's cost in
	// word-instructions. swBlock tiles the program into cache blocks (see
	// BlockSlots): block budgets shrink with lw so one tile's stripes
	// stay L1-resident across its instructions. swept records which mode
	// settled the current cycle (so Clock reads the matching state);
	// sweepNext, sweepStreak and retryAfter drive the adaptive mode
	// switch (see sweepRetryMin).
	swCode        []opcode
	swDst         []int32
	swA0          []int32
	swA1          []int32
	swA2          []int32
	swBlock       []int32
	swD           []int32
	swOut         []int32
	swEvals       int64
	swVals        []uint64
	nextMaskSlot  int32
	maskSlot      []int32
	maskSlotEpoch []uint32
	bound         []NetID
	boundMsk      []NetID
	bEpoch        []uint32
	blkStamp      []uint32
	blkEpoch      uint32

	// Per-rDFF summaries so quiescent flip-flops cost one word instead
	// of a stripe scan: qAny[k] is the OR of qDiff's stripe, qMask[k]
	// the OR of the Q-site injection mask stripes (nonzero only for
	// injected flip-flop outputs).
	qAny  []uint64
	qMask []uint64

	swept       bool
	sweepNext   bool
	sweepStreak int
	retryAfter  int

	// Buffer copy-propagation: mask-free single-buffer chains (fanout
	// branches, output aliases) are elided from the sweep program and
	// every later reference to them — operand, D pin or output — is
	// rewritten to their source (aliasTo, valid while aliasEpoch matches
	// the batch epoch). On the fanout-branched DSP core buffers are about
	// two thirds of the compiled program, so this more than halves the
	// dense-cycle cost.
	aliasTo    []int32
	aliasEpoch []uint32

	// budget is DefaultSweepThreshold in instructions of the current
	// sweep program.
	budget int

	stats BatchStats
}

// BatchStats is what one batch replay cost: word-instruction
// evaluations executed (a stripe instruction counts its lane words, an
// opMaskWord one), evaluations saved versus a full-frame sweep per
// batch cycle (negative only if abandoned event passes overshot it),
// sweep cache blocks run, and the cycles settled by the event path, by
// the sweep outright, and by the sweep after an abandoned event pass.
type BatchStats struct {
	Evals, Saved, Blocks                      int64
	EventCycles, SweepCycles, AbandonedCycles int64
}

// Add accumulates o into s.
func (s *BatchStats) Add(o BatchStats) {
	s.Evals += o.Evals
	s.Saved += o.Saved
	s.Blocks += o.Blocks
	s.EventCycles += o.EventCycles
	s.SweepCycles += o.SweepCycles
	s.AbandonedCycles += o.AbandonedCycles
}

// NewEventSim returns an EventSim for the compiled circuit with stripes
// of laneWords words (clamped to [1, MaxLaneWords]); a batch carries up
// to 63×laneWords faults.
func NewEventSim(c *Compiled, laneWords int) *EventSim {
	lw := laneWords
	if lw < 1 {
		lw = 1
	}
	if lw > MaxLaneWords {
		lw = MaxLaneWords
	}
	return &EventSim{
		c:     c,
		maxLW: lw,
		lw:    lw,
		// Masks are slot-sized (temporaries are never injected and stay
		// zero) so the sweep can apply them by instruction destination.
		sa0:           make([]uint64, c.slots*lw),
		sa1:           make([]uint64, c.slots*lw),
		diff:          make([]uint64, c.numNets*lw),
		divStamp:      make([]uint64, c.numNets),
		tmpAbs:        make([]uint64, c.slots*lw),
		vBuf:          make([]uint64, lw),
		ob0:           make([]uint64, lw),
		ob1:           make([]uint64, lw),
		ob2:           make([]uint64, lw),
		rEpoch:        make([]uint32, c.numNets),
		combEpoch:     make([]uint32, c.numNets),
		bm:            make([]uint64, (len(c.schedule)+63)/64),
		retired:       make([]uint64, lw),
		swVals:        make([]uint64, c.slots*lw),
		maskSlot:      make([]int32, c.numNets),
		maskSlotEpoch: make([]uint32, c.numNets),
		bEpoch:        make([]uint32, c.numNets),
		blkStamp:      make([]uint32, c.slots),
		aliasTo:       make([]int32, c.numNets),
		aliasEpoch:    make([]uint32, c.numNets),
	}
}

// LaneWords returns the stripe width W (64-bit words per net) the
// simulator was built with: the widest batch it takes.
func (e *EventSim) LaneWords() int { return e.maxLW }

// BeginBatch installs a fault batch: injection masks, the reachable
// cone (transitive fanout of the sites, closed through DFF D→Q edges),
// and each fault's initial flip-flop divergence from laneStates (packed
// per Netlist.DFFs order; nil means the fault starts at the fault-free
// state). The trace must already hold the fault-free run through the
// cycles this batch will replay; base is the absolute cycle the batch
// starts at (laneStates describe the machine entering that cycle).
//
// The batch runs on stripes fitted to it: the narrowest of 1, 2, 4 and
// W words that holds the faults, so a part-filled batch (a fault list's
// tail; every batch, once survivors thin out) sweeps no empty lane
// words. Every array is per-batch scratch, so the stride can change
// between batches; Cycle fills, and RetireLane and LaneStateInto
// address, only the words in use.
func (e *EventSim) BeginBatch(faults []BatchFault, trace *GoodTrace, base int, laneStates [][]uint64) {
	if len(faults) > 63*e.maxLW {
		panic(fmt.Sprintf("logic: EventSim batch of %d faults exceeds %d lanes (%d words)",
			len(faults), 63*e.maxLW, e.maxLW))
	}
	e.lw = e.maxLW
	for _, narrow := range [...]int{1, 2, 4} {
		if narrow < e.maxLW && len(faults) <= 63*narrow {
			e.lw = narrow
			break
		}
	}
	lw := e.lw
	c, n := e.c, e.c.n
	e.trace = trace
	e.epoch++
	e.rAll = e.rAll[:0]
	e.rWork = e.rWork[:0]
	e.rDFF = e.rDFF[:0]
	e.rOut = e.rOut[:0]
	e.sites = e.sites[:0]
	e.laneSite = e.laneSite[:0]

	// Injection masks; fault i lands in word i/63, lane 1 + i%63.
	for i, f := range faults {
		e.laneSite = append(e.laneSite, f.Site)
		b := int(f.Site)*lw + i/63
		lane := uint(1 + i%63)
		if f.SA1 {
			e.sa1[b] |= 1 << lane
		} else {
			e.sa0[b] |= 1 << lane
		}
		if e.rEpoch[f.Site] != e.epoch {
			e.rEpoch[f.Site] = e.epoch
			e.rAll = append(e.rAll, f.Site)
			e.sites = append(e.sites, f.Site)
			e.injected = append(e.injected, f.Site)
		}
	}

	// Reachable closure over the fanout relation. Netlist fanout lists
	// a DFF's Q net as a reader of its D net, so the BFS crosses clock
	// edges and the cone bounds every cycle's possible divergence.
	for qi := 0; qi < len(e.rAll); qi++ {
		for _, r := range c.readers(e.rAll[qi]) {
			if e.rEpoch[r] != e.epoch {
				e.rEpoch[r] = e.epoch
				e.rAll = append(e.rAll, r)
			}
		}
	}

	// Partition the cone.
	for _, id := range e.rAll {
		switch n.gates[id].Kind {
		case GateInput, GateConst0, GateConst1:
		case GateDFF:
			e.rDFF = append(e.rDFF, c.dffIndex[id])
		default:
			e.combEpoch[id] = e.epoch
			e.rWork = append(e.rWork, id)
		}
		if c.outIndex[id] >= 0 {
			e.rOut = append(e.rOut, c.outIndex[id])
		}
	}
	// Order rWork topologically: a wide cone (union of many faults'
	// fanouts) usually covers most of the circuit, where filtering the
	// precomputed schedule is a single linear pass; narrow cones sort.
	if len(e.rWork)*4 >= len(c.schedule) {
		e.rWork = e.rWork[:0]
		for _, id := range c.schedule {
			if e.combEpoch[id] == e.epoch {
				e.rWork = append(e.rWork, id)
			}
		}
	} else {
		sortByOrderPos(e.rWork, c.orderPos)
	}
	if cap(e.qDiff) < len(e.rDFF)*lw {
		e.qDiff = make([]uint64, len(e.rDFF)*lw)
	}
	e.qDiff = e.qDiff[:len(e.rDFF)*lw]
	if cap(e.qAny) < len(e.rDFF) {
		e.qAny = make([]uint64, len(e.rDFF))
		e.qMask = make([]uint64, len(e.rDFF))
	}
	e.qAny = e.qAny[:len(e.rDFF)]
	e.qMask = e.qMask[:len(e.rDFF)]
	// The sweep program appends two mask slots per injected site after
	// the compiled slots (see buildSweep); size the value stripes and
	// the block-budget stamp array for the worst case.
	maxSlots := c.slots + 2*len(e.sites)
	if cap(e.swVals) < maxSlots*lw {
		e.swVals = make([]uint64, maxSlots*lw)
	}
	e.swVals = e.swVals[:maxSlots*lw]
	if cap(e.blkStamp) < maxSlots {
		grown := make([]uint32, maxSlots)
		copy(grown, e.blkStamp)
		e.blkStamp = grown
	}
	e.blkStamp = e.blkStamp[:maxSlots]
	e.buildSweep()
	e.swept = false
	e.sweepNext = false
	e.sweepStreak = 0
	e.retryAfter = sweepRetryMin
	for w := range e.retired {
		e.retired[w] = 0
	}
	e.liveCount = len(faults)
	e.shrinkAt = len(faults) / 2
	e.pendingShrink = false

	// Initial flip-flop divergence: each fault's saved state overlaid on
	// the fault-free batch-start state (the trace's base-cycle Q values),
	// masked for Q-site faults — the analogue of SetLaneState +
	// ApplyInjectionsToValues on the reference simulator.
	for k, di := range e.rDFF {
		q := n.dffs[di]
		good := trace.Word(base, q)
		qb := int(q) * lw
		var anyD, anyM uint64
		for w := 0; w < lw; w++ {
			v := good
			lo := w * 63
			hi := lo + 63
			if hi > len(laneStates) {
				hi = len(laneStates)
			}
			for li := lo; li < hi; li++ {
				st := laneStates[li]
				if st == nil {
					continue
				}
				bit := uint64(1) << uint(1+li-lo)
				if st[di>>6]>>(uint(di)&63)&1 == 1 {
					v |= bit
				} else {
					v &^= bit
				}
			}
			v = (v &^ e.sa0[qb+w]) | e.sa1[qb+w]
			d := (v ^ good) &^ 1
			e.qDiff[k*lw+w] = d
			anyD |= d
			anyM |= e.sa0[qb+w] | e.sa1[qb+w]
		}
		e.qAny[k] = anyD
		e.qMask[k] = anyM
	}
}

// blockBudget is the sweep tile's distinct-slot budget: BlockSlots
// single-word slots shrunk by the stripe width so the tile's byte
// footprint stays constant as lanes widen.
func (e *EventSim) blockBudget() int {
	b := BlockSlots / e.lw
	if b < 256 {
		b = 256
	}
	return b
}

// buildSweep compacts the cone's instruction chains (rWork is already
// in topological order) into the sweep program, collects its read
// frontier — every real-net slot that something reads but no cone
// instruction computes and no cone flip-flop seeds — and tiles the
// program into cache blocks (swBlock) by the distinct-slot budget.
//
// Mask-free buffer chains are copy-propagated away instead of emitted:
// on a fanout-branched netlist most "gates" are branch buffers whose
// sweep evaluation is a plain copy, so eliding them and rewriting every
// later reference to read the source directly shrinks the program that
// runs every dense cycle. That includes the two readers outside the
// program, the sweep-mode Clock (swD) and the detection scan (swOut);
// only a buffer an injection mask applies to keeps its own slot. The
// event path is untouched — it evaluates the full compiled program,
// where the buffers still exist.
func (e *EventSim) buildSweep() {
	c, lw := e.c, e.lw
	e.swCode = e.swCode[:0]
	e.swDst = e.swDst[:0]
	e.swA0 = e.swA0[:0]
	e.swA1 = e.swA1[:0]
	e.swA2 = e.swA2[:0]
	e.nextMaskSlot = int32(c.slots)
	e.bound = e.bound[:0]
	e.boundMsk = e.boundMsk[:0]
	e.swBlock = append(e.swBlock[:0], 0)
	e.blkEpoch++
	blkBudget := e.blockBudget()
	blkCount := 0
	note := func(slot int32) {
		if e.blkStamp[slot] != e.blkEpoch {
			e.blkStamp[slot] = e.blkEpoch
			blkCount++
		}
	}
	emit := func(op opcode, dst, a0, a1, a2 int32) {
		e.swCode = append(e.swCode, op)
		e.swDst = append(e.swDst, dst)
		e.swA0 = append(e.swA0, a0)
		e.swA1 = append(e.swA1, a1)
		e.swA2 = append(e.swA2, a2)
		if blkCount > blkBudget {
			e.swBlock = append(e.swBlock, int32(len(e.swCode)))
			e.blkEpoch++
			blkCount = 0
		}
	}
	// read resolves a referenced slot through the aliases and puts it on
	// the frontier if nothing in the cone produces it.
	read := func(op int32) int32 {
		if int(op) < c.numNets && e.aliasEpoch[op] == e.epoch {
			op = e.aliasTo[op]
		}
		e.noteFrontier(op)
		return op
	}
	maskOps := 0
	for _, id := range e.rWork {
		ps, pe := c.pcStart[id], c.pcEnd[id]
		mb := int(id) * lw
		var masked uint64
		for w := 0; w < lw; w++ {
			masked |= e.sa0[mb+w] | e.sa1[mb+w]
		}
		if masked == 0 && pe-ps == 1 && c.code[ps] == opBuf {
			// rWork is topological, so the source's own alias (if any)
			// is already final — chains of buffers flatten one hop at a
			// time and every later reference resolves in one lookup.
			e.aliasTo[id] = read(c.a0[ps])
			e.aliasEpoch[id] = e.epoch
			continue
		}
		for pc := ps; pc < pe; pc++ {
			a0, a1, a2 := read(c.a0[pc]), c.a1[pc], c.a2[pc]
			note(c.dst[pc])
			note(a0)
			switch c.code[pc] {
			case opBuf, opNot:
			case opMux:
				a1, a2 = read(a1), read(a2)
				note(a1)
				note(a2)
			default:
				a1 = read(a1)
				note(a1)
			}
			emit(c.code[pc], c.dst[pc], a0, a1, a2)
		}
		if masked != 0 {
			// Fused mask application right after the chain's final
			// instruction: v = (v &^ sa0) | sa1 in each word that has a
			// mask bit. The site's mask stripes — m0 holds ^sa0, m0+1
			// holds sa1 — are what RetireLane edits in place.
			m0 := e.nextMaskSlot
			e.nextMaskSlot += 2
			e.maskSlot[id] = m0
			e.maskSlotEpoch[id] = e.epoch
			note(m0)
			note(m0 + 1)
			for w := 0; w < lw; w++ {
				e.swVals[int(m0)*lw+w] = ^e.sa0[mb+w]
				e.swVals[int(m0+1)*lw+w] = e.sa1[mb+w]
				if e.sa0[mb+w]|e.sa1[mb+w] != 0 {
					emit(opMaskWord, int32(id), int32(id), m0, int32(w))
					maskOps++
				}
			}
		}
	}
	if e.swBlock[len(e.swBlock)-1] != int32(len(e.swCode)) {
		e.swBlock = append(e.swBlock, int32(len(e.swCode)))
	}
	e.swD = e.swD[:0]
	for _, di := range e.rDFF {
		e.swD = append(e.swD, read(int32(c.dNet[di])))
	}
	e.swOut = e.swOut[:0]
	for _, oi := range e.rOut {
		e.swOut = append(e.swOut, read(int32(c.n.outputs[oi])))
	}
	e.swEvals = int64(len(e.swCode)-maskOps)*int64(lw) + int64(maskOps)
	e.budget = int(DefaultSweepThreshold * float64(len(e.swCode)-maskOps))
	if e.budget < 16 {
		e.budget = 16
	}
}

// noteFrontier adds a slot the sweep reads to the read frontier unless
// the sweep computes it (in-cone combinational net), seeds it (in-cone
// flip-flop Q), or it is a chain temporary. Frontier nets carrying an
// injection mask — only injected primary-input/constant sites qualify —
// go on the separate boundMsk list so the per-cycle seed loop stays a
// plain broadcast for everything else.
func (e *EventSim) noteFrontier(op int32) {
	if int(op) >= e.c.numNets {
		return
	}
	if e.combEpoch[op] == e.epoch || e.bEpoch[op] == e.epoch {
		return
	}
	if e.c.dffIndex[op] >= 0 && e.rEpoch[op] == e.epoch {
		return
	}
	e.bEpoch[op] = e.epoch
	b := int(op) * e.lw
	for w := 0; w < e.lw; w++ {
		if e.sa0[b+w]|e.sa1[b+w] != 0 {
			e.boundMsk = append(e.boundMsk, NetID(op))
			return
		}
	}
	e.bound = append(e.bound, NetID(op))
}

// markFan schedules every combinational reader of net id for
// evaluation in the current cycle's settle. No membership or dedup test
// is needed: divergence is confined to the batch cone (readers of a
// cone net are in the cone by closure), and the bitmap OR is
// idempotent.
func (e *EventSim) markFan(id NetID) {
	c := e.c
	for _, p := range c.foPosList[c.foPosOff[id]:c.foPosOff[id+1]] {
		e.bm[p>>6] |= 1 << (uint(p) & 63)
	}
}

// operand reconstructs the absolute 64-lane word of one instruction
// operand at the cycle being settled (single-word path): good-trace
// value (from the hoisted row) XOR current divergence for real nets,
// the chain-local scratch for temporaries. The divergence merge is
// branchless — the stamp comparison becomes an all-ones/zero mask —
// because the branch is data-dependent and mispredicts heavily in
// half-diverged regions.
func (e *EventSim) operand(idx int32) uint64 {
	if int(idx) >= e.c.numNets {
		return e.tmpAbs[idx]
	}
	v := -(e.row[idx>>6] >> (uint(idx) & 63) & 1)
	x := e.divStamp[idx] ^ e.cyc
	live := ((x | -x) >> 63) - 1 // all-ones iff divStamp == cyc
	return v ^ (e.diff[idx] & live)
}

// operandStripes is operand for lw > 1: it reconstructs the stripe into
// buf (temporaries are returned in place from tmpAbs). The stamp mask
// is computed once per operand and applied branchlessly per word.
func (e *EventSim) operandStripes(idx int32, buf []uint64) []uint64 {
	lw := e.lw
	if int(idx) >= e.c.numNets {
		return e.tmpAbs[int(idx)*lw:][:lw]
	}
	v := -(e.row[idx>>6] >> (uint(idx) & 63) & 1)
	x := e.divStamp[idx] ^ e.cyc
	live := ((x | -x) >> 63) - 1
	dv := e.diff[int(idx)*lw:][:lw]
	buf = buf[:lw]
	for w := range buf {
		buf[w] = v ^ (dv[w] & live)
	}
	return buf
}

// evalNet executes net id's instruction chain against reconstructed
// absolute operands (single-word path) and returns the net's absolute
// word with its injection masks applied.
func (e *EventSim) evalNet(id NetID) uint64 {
	c := e.c
	code, dst, a0, a1, a2 := c.code, c.dst, c.a0, c.a1, c.a2
	var v uint64
	for pc := c.pcStart[id]; pc < c.pcEnd[id]; pc++ {
		switch code[pc] {
		case opBuf:
			v = e.operand(a0[pc])
		case opNot:
			v = ^e.operand(a0[pc])
		case opAnd2:
			v = e.operand(a0[pc]) & e.operand(a1[pc])
		case opOr2:
			v = e.operand(a0[pc]) | e.operand(a1[pc])
		case opNand2:
			v = ^(e.operand(a0[pc]) & e.operand(a1[pc]))
		case opNor2:
			v = ^(e.operand(a0[pc]) | e.operand(a1[pc]))
		case opXor2:
			v = e.operand(a0[pc]) ^ e.operand(a1[pc])
		case opXnor2:
			v = ^(e.operand(a0[pc]) ^ e.operand(a1[pc]))
		case opMux:
			sel := e.operand(a0[pc])
			v = (e.operand(a1[pc]) &^ sel) | (e.operand(a2[pc]) & sel)
		}
		if d := dst[pc]; int(d) >= c.numNets {
			e.tmpAbs[d] = v
		}
	}
	return (v &^ e.sa0[id]) | e.sa1[id]
}

// evalNetStripes executes net id's chain over lw-word stripes, applies
// the injection masks, writes the resulting divergence stripe into
// diff, and returns the OR of its words (zero = converged).
func (e *EventSim) evalNetStripes(id NetID) uint64 {
	c, lw := e.c, e.lw
	code, dst, a0, a1, a2 := c.code, c.dst, c.a0, c.a1, c.a2
	v := e.vBuf[:lw]
	for pc := c.pcStart[id]; pc < c.pcEnd[id]; pc++ {
		x := e.operandStripes(a0[pc], e.ob0)
		switch code[pc] {
		case opBuf:
			copy(v, x)
		case opNot:
			for w := range v {
				v[w] = ^x[w]
			}
		case opAnd2:
			y := e.operandStripes(a1[pc], e.ob1)
			for w := range v {
				v[w] = x[w] & y[w]
			}
		case opOr2:
			y := e.operandStripes(a1[pc], e.ob1)
			for w := range v {
				v[w] = x[w] | y[w]
			}
		case opNand2:
			y := e.operandStripes(a1[pc], e.ob1)
			for w := range v {
				v[w] = ^(x[w] & y[w])
			}
		case opNor2:
			y := e.operandStripes(a1[pc], e.ob1)
			for w := range v {
				v[w] = ^(x[w] | y[w])
			}
		case opXor2:
			y := e.operandStripes(a1[pc], e.ob1)
			for w := range v {
				v[w] = x[w] ^ y[w]
			}
		case opXnor2:
			y := e.operandStripes(a1[pc], e.ob1)
			for w := range v {
				v[w] = ^(x[w] ^ y[w])
			}
		case opMux:
			y := e.operandStripes(a1[pc], e.ob1)
			z := e.operandStripes(a2[pc], e.ob2)
			for w := range v {
				v[w] = (y[w] &^ x[w]) | (z[w] & x[w])
			}
		}
		if d := dst[pc]; int(d) >= c.numNets {
			copy(e.tmpAbs[int(d)*lw:][:lw], v)
		}
	}
	b := int(id) * lw
	s0 := e.sa0[b:][:lw]
	s1 := e.sa1[b:][:lw]
	dv := e.diff[b:][:lw]
	good := e.goodWord(id)
	var any uint64
	for w := range dv {
		d := ((v[w] &^ s0[w]) | s1[w]) ^ good
		dv[w] = d
		any |= d
	}
	return any
}

// goodWord broadcasts net id's fault-free value from the hoisted row.
func (e *EventSim) goodWord(id NetID) uint64 {
	return -(e.row[id>>6] >> (uint(id) & 63) & 1)
}

// Cycle settles the given absolute cycle and fills det (length
// LaneWords; the words the batch occupies are written) with the OR-ed
// per-output lane-difference stripe against the fault-free machine (bit
// 0 of every word always clear).
// Primary-input values come from the good trace — the good machine saw
// the same vectors — so no vector is needed; only the divergence
// sources (injected sites, diverged flip-flops) and their live fanout
// are evaluated. When divergence is dense the cycle runs the compacted
// cone sweep instead (see sweepCycle); the two modes interoperate
// freely because the only cross-cycle state is qDiff. Call Clock
// afterwards to advance state.
//
// The logic.eventsim.diff chaos point (internal/chaos) can corrupt the
// returned mask — one seeded-random lane-bit flip — to model a silently
// wrong compiled-kernel batch; the engine's shadow cross-check exists
// to catch exactly this class of failure.
func (e *EventSim) Cycle(cycle int, det []uint64) {
	e.cycleInto(cycle, det)
	if f := chaos.Maybe("logic.eventsim.diff"); f != nil {
		det[0] = f.CorruptWord(det[0]) &^ 1
	}
}

func (e *EventSim) cycleInto(cycle int, det []uint64) {
	c, n := e.c, e.c.n
	lw := e.lw
	det = det[:lw]
	for w := range det {
		det[w] = 0
	}
	e.cyc++
	e.row = e.trace.row(cycle)
	if e.pendingShrink {
		e.shrinkCone()
	}

	frame := int64(len(c.code)) * int64(lw)
	if e.sweepNext && e.sweepStreak < e.retryAfter {
		e.sweepStreak++
		e.swept = true
		e.sweepCycle(det)
		e.stats.SweepCycles++
		e.stats.Evals += e.swEvals
		e.stats.Saved += frame - e.swEvals
		return
	}
	e.sweepStreak = 0
	e.swept = false

	// Seed divergence sources. Injected non-DFF sites: the masks force
	// lanes away from the good value (a site that is also a scheduled
	// cone gate re-evaluates later with the same masks, reproducing or
	// refining this difference — never losing the forced lanes).
	for _, id := range e.sites {
		if n.gates[id].Kind == GateDFF {
			continue // carried by qDiff below
		}
		good := e.goodWord(id)
		b := int(id) * lw
		var any uint64
		for w := 0; w < lw; w++ {
			d := ((good &^ e.sa0[b+w]) | e.sa1[b+w]) ^ good
			e.diff[b+w] = d
			any |= d
		}
		if any != 0 {
			e.divStamp[id] = e.cyc
			e.markFan(id)
		}
	}
	for k, di := range e.rDFF {
		if e.qAny[k] != 0 {
			q := n.dffs[di]
			copy(e.diff[int(q)*lw:][:lw], e.qDiff[k*lw:(k+1)*lw])
			e.divStamp[q] = e.cyc
			e.markFan(q)
		}
	}

	// Topological settle of the scheduled gates by bitmap scan. The
	// word is drained lowest-bit-first, re-reading it every iteration:
	// an evaluation can mark a reader at a position below other pending
	// bits of the same word, and taking the minimum pending position
	// keeps the scan strictly topological (a mark is always above its
	// driver's position, so nothing ever lands behind the scan point and
	// every gate is evaluated exactly once per cycle). Divergence that
	// dies (recomputed value equals the good machine's) stops
	// propagating.
	executed := 0
	bm := e.bm
	sched := c.schedule
	for wi := 0; wi < len(bm); wi++ {
		base := int32(wi << 6)
		for bm[wi] != 0 {
			b := bits.TrailingZeros64(bm[wi])
			bm[wi] &^= 1 << uint(b)
			id := sched[base+int32(b)]
			executed += int(c.pcEnd[id] - c.pcStart[id])
			if lw == 1 {
				abs := e.evalNet(id)
				if d := abs ^ e.goodWord(id); d != 0 {
					e.diff[id] = d
					e.divStamp[id] = e.cyc
					e.markFan(id)
				} else {
					e.divStamp[id] = 0
				}
			} else {
				if e.evalNetStripes(id) != 0 {
					e.divStamp[id] = e.cyc
					e.markFan(id)
				} else {
					e.divStamp[id] = 0
				}
			}
		}
		if executed > e.budget {
			// Too dense for event scheduling to pay: abandon the pass and
			// settle with the sweep, which ignores the partial divStamp
			// state (it reads only qDiff and the trace), then stay in
			// sweep mode. The wasted event work is capped by the budget;
			// a retry that ends here waits twice as long for the next.
			for i := wi + 1; i < len(bm); i++ {
				bm[i] = 0
			}
			if e.sweepNext && e.retryAfter < sweepRetryMax {
				e.retryAfter *= 2
			}
			e.swept = true
			e.sweepNext = true
			e.sweepCycle(det)
			e.stats.AbandonedCycles++
			e.stats.Evals += int64(executed)*int64(lw) + e.swEvals
			e.stats.Saved += frame - int64(executed)*int64(lw) - e.swEvals
			return
		}
	}
	e.sweepNext = false
	e.retryAfter = sweepRetryMin
	e.stats.EventCycles++
	e.stats.Evals += int64(executed) * int64(lw)
	e.stats.Saved += frame - int64(executed)*int64(lw)

	for _, oi := range e.rOut {
		o := n.outputs[oi]
		if e.divStamp[o] == e.cyc {
			ob := int(o) * lw
			for w := 0; w < lw; w++ {
				det[w] |= e.diff[ob+w]
			}
		}
	}
	for w := range det {
		det[w] &^= 1
	}
}

// sweepCycle settles the current cycle by evaluating the whole cone
// over absolute value stripes: seed the read frontier and the in-cone
// flip-flop Qs from the good row (plus divergence and injection masks),
// then run the compacted program tile by tile — the same cost profile
// as the full-sweep CompiledSim, but confined to the cone and amortized
// over lw words per instruction dispatch.
func (e *EventSim) sweepCycle(det []uint64) {
	n, lw := e.c.n, e.lw
	vals := e.swVals
	for _, bn := range e.bound {
		good := e.goodWord(bn)
		b := int(bn) * lw
		for w := 0; w < lw; w++ {
			vals[b+w] = good
		}
	}
	for _, bn := range e.boundMsk {
		// Injected frontier sites (primary inputs, constants).
		good := e.goodWord(bn)
		b := int(bn) * lw
		for w := 0; w < lw; w++ {
			vals[b+w] = (good &^ e.sa0[b+w]) | e.sa1[b+w]
		}
	}
	for k, di := range e.rDFF {
		q := n.dffs[di]
		good := e.goodWord(q)
		qb := int(q) * lw
		if e.qAny[k] == 0 {
			for w := 0; w < lw; w++ {
				vals[qb+w] = good
			}
			continue
		}
		for w := 0; w < lw; w++ {
			vals[qb+w] = good ^ e.qDiff[k*lw+w]
		}
	}
	for bi := 0; bi+1 < len(e.swBlock); bi++ {
		e.runSweep(e.swBlock[bi], e.swBlock[bi+1])
	}
	e.stats.Blocks += int64(len(e.swBlock) - 1)
	for k, oi := range e.rOut {
		good := e.goodWord(n.outputs[oi])
		ob := int(e.swOut[k]) * lw
		for w := 0; w < lw; w++ {
			det[w] |= vals[ob+w] ^ good
		}
	}
	for w := 0; w < lw; w++ {
		det[w] &^= 1
	}
}

// runSweep executes sweep-program instructions [ps, pe) on the width
// the simulator was built with (specialized runners for 1 and 4 words).
func (e *EventSim) runSweep(ps, pe int32) {
	if ps >= pe {
		return
	}
	switch e.lw {
	case 1:
		runProgram(e.swCode, e.swDst, e.swA0, e.swA1, e.swA2, e.swVals, ps, pe)
	case 4:
		runProgramStripes4(e.swCode, e.swDst, e.swA0, e.swA1, e.swA2, e.swVals, ps, pe)
	case 8:
		runProgramStripes8(e.swCode, e.swDst, e.swA0, e.swA1, e.swA2, e.swVals, ps, pe)
	default:
		runProgramStripes(e.swCode, e.swDst, e.swA0, e.swA1, e.swA2, e.swVals, e.lw, ps, pe)
	}
}

// Clock advances every in-cone flip-flop's divergence (applying Q-site
// injection masks) for the cycle just settled by Cycle. The good
// machine's next Q value is its current D value, so the new divergence
// needs no lookahead. After an event-mode settle a single pass is safe
// even for direct Q→D chains: reading a Q operand consults
// diff/divStamp (seeded at the top of Cycle), which this loop never
// writes. After a sweep-mode settle the D values come from swVals
// (slot swD[k]), which the clock does not modify either, and only an
// injected flip-flop (qMask[k] != 0) loads its mask stripes.
// Out-of-cone flip-flops cannot diverge and are left to the trace.
func (e *EventSim) Clock() {
	c, lw := e.c, e.lw
	if e.swept {
		for k, di := range e.rDFF {
			goodD := e.goodWord(c.dNet[di])
			dv := e.swVals[int(e.swD[k])*lw:][:lw]
			qd := e.qDiff[k*lw:][:lw]
			var anyD uint64
			if e.qMask[k] == 0 {
				for w := range qd {
					nd := (dv[w] ^ goodD) &^ 1
					qd[w] = nd
					anyD |= nd
				}
			} else {
				qb := int(c.n.dffs[di]) * lw
				for w := range qd {
					nd := (((dv[w] &^ e.sa0[qb+w]) | e.sa1[qb+w]) ^ goodD) &^ 1
					qd[w] = nd
					anyD |= nd
				}
			}
			e.qAny[k] = anyD
		}
		return
	}
	for k, di := range e.rDFF {
		d := c.dNet[di]
		if e.divStamp[d] != e.cyc && e.qAny[k]|e.qMask[k] == 0 {
			continue // quiescent flip-flop stays at the good value
		}
		diverged := e.divStamp[d] == e.cyc
		goodD := e.goodWord(d)
		db, qb := int(d)*lw, int(c.n.dffs[di])*lw
		var anyD uint64
		for w := 0; w < lw; w++ {
			absD := goodD
			if diverged {
				absD ^= e.diff[db+w]
			}
			nd := (((absD &^ e.sa0[qb+w]) | e.sa1[qb+w]) ^ goodD) &^ 1
			e.qDiff[k*lw+w] = nd
			anyD |= nd
		}
		e.qAny[k] = anyD
	}
}

// RetireLane removes the fault in the given stripe word and lane from
// the batch: its injection mask bit and any state divergence it
// accumulated are cleared, so its divergence stops being simulated from
// the next cycle on. The fault simulator calls this once a fault
// reaches its detection quota — unlike the full-sweep kernels, whose
// cost is fixed per batch, the event kernel's cost shrinks with every
// retired fault. Surviving lanes are unaffected (lanes never interact).
func (e *EventSim) RetireLane(word int, lane uint) {
	lw := e.lw
	site := e.laneSite[word*63+int(lane)-1]
	bit := uint64(1) << lane
	b := int(site)*lw + word
	e.sa0[b] &^= bit
	e.sa1[b] &^= bit
	if e.maskSlotEpoch[site] == e.epoch {
		// Keep the sweep program's fused mask slots in step.
		ms := int(e.maskSlot[site])
		e.swVals[ms*lw+word] |= bit      // ^sa0 stripe
		e.swVals[(ms+1)*lw+word] &^= bit // sa1 stripe
	}
	if di := e.c.dffIndex[site]; di >= 0 {
		for k, d := range e.rDFF {
			if d == di {
				var m uint64
				qb := int(site) * lw
				for w := 0; w < lw; w++ {
					m |= e.sa0[qb+w] | e.sa1[qb+w]
				}
				e.qMask[k] = m
				break
			}
		}
	}
	// qAny is left as a conservative superset — the retired lane's bit
	// may still be live in other words, and every consumer treats a
	// stale nonzero as "do the exact stripe work", which the next Clock
	// uses to refresh it.
	for k := 0; k < len(e.rDFF); k++ {
		e.qDiff[k*lw+word] &^= bit
	}
	if e.retired[word]&bit == 0 {
		e.retired[word] |= bit
		e.liveCount--
		if e.liveCount <= e.shrinkAt {
			e.pendingShrink = true
		}
	}
}

// shrinkCone rebuilds the cone from the still-live faults' sites. The
// live cone is a subset of the current one (closure is monotonic in the
// site set), so every list is rebuilt by filtering — rWork keeps its
// topological order without re-sorting, and rDFF compacts qDiff in
// step. Dropped flip-flops are provably quiescent: a live fault's
// divergence stays inside its own site's closure, and RetireLane
// cleared the retired lanes' bits.
func (e *EventSim) shrinkCone() {
	c, n := e.c, e.c.n
	lw := e.lw
	e.pendingShrink = false
	e.epoch++
	e.rAll = e.rAll[:0]
	e.sites = e.sites[:0]
	for i, s := range e.laneSite {
		if e.retired[i/63]>>(uint(1+i%63))&1 == 0 && e.rEpoch[s] != e.epoch {
			e.rEpoch[s] = e.epoch
			e.rAll = append(e.rAll, s)
			e.sites = append(e.sites, s)
		}
	}
	for qi := 0; qi < len(e.rAll); qi++ {
		for _, r := range c.readers(e.rAll[qi]) {
			if e.rEpoch[r] != e.epoch {
				e.rEpoch[r] = e.epoch
				e.rAll = append(e.rAll, r)
			}
		}
	}
	nw := 0
	for _, id := range e.rWork {
		if e.rEpoch[id] == e.epoch {
			e.combEpoch[id] = e.epoch
			e.rWork[nw] = id
			nw++
		}
	}
	e.rWork = e.rWork[:nw]
	nd := 0
	for k, di := range e.rDFF {
		if e.rEpoch[n.dffs[di]] == e.epoch {
			e.rDFF[nd] = di
			copy(e.qDiff[nd*lw:(nd+1)*lw], e.qDiff[k*lw:(k+1)*lw])
			e.qAny[nd] = e.qAny[k]
			e.qMask[nd] = e.qMask[k]
			nd++
		}
	}
	e.rDFF = e.rDFF[:nd]
	e.qDiff = e.qDiff[:nd*lw]
	e.qAny = e.qAny[:nd]
	e.qMask = e.qMask[:nd]
	no := 0
	for _, oi := range e.rOut {
		if e.rEpoch[n.outputs[oi]] == e.epoch {
			e.rOut[no] = oi
			no++
		}
	}
	e.rOut = e.rOut[:no]
	e.buildSweep()
	e.shrinkAt = e.liveCount / 2
	// Divergence just dropped with the retirements, so retry event
	// scheduling immediately rather than waiting out the sweep streak.
	e.retryAfter = sweepRetryMin
	e.sweepStreak = e.retryAfter
}

// LaneStateInto writes one fault lane's packed DFF state to dst: the
// fault-free next state nextGood with the lane's in-cone flip-flop
// divergence bits flipped (out-of-cone flip-flops never diverge).
func (e *EventSim) LaneStateInto(word int, lane uint, nextGood, dst []uint64) {
	lw := e.lw
	copy(dst, nextGood)
	for k, di := range e.rDFF {
		if e.qDiff[k*lw+word]>>lane&1 == 1 {
			dst[di>>6] ^= 1 << (uint(di) & 63)
		}
	}
}

// EndBatch removes the batch's injection masks and returns and resets
// the batch's cost counters.
func (e *EventSim) EndBatch() BatchStats {
	lw := e.lw
	for _, id := range e.injected {
		b := int(id) * lw
		for w := 0; w < lw; w++ {
			e.sa0[b+w] = 0
			e.sa1[b+w] = 0
		}
	}
	e.injected = e.injected[:0]
	st := e.stats
	e.stats = BatchStats{}
	return st
}

// sortByOrderPos sorts nets by their compiled chain position with shell
// sort (Ciura gaps) — the lists are per-batch scratch, and this avoids
// sort.Slice's closure allocation in the batch setup path.
func sortByOrderPos(nets []NetID, pos []int32) {
	gaps := []int{1, 4, 10, 23, 57, 132, 301, 701, 1577}
	for i := len(gaps) - 1; i >= 0; i-- {
		gap := gaps[i]
		if gap >= len(nets) {
			continue
		}
		for j := gap; j < len(nets); j++ {
			v := nets[j]
			k := j
			for k >= gap && pos[nets[k-gap]] > pos[v] {
				nets[k] = nets[k-gap]
				k -= gap
			}
			nets[k] = v
		}
	}
}
