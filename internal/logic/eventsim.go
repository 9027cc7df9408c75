package logic

import (
	"fmt"
	"math/bits"
	"unsafe"

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

	// Sweep mode: when divergence is too dense for event scheduling to
	// pay, a cycle is one straight-line program over absolute value
	// stripes (swVals), in execution order: a seed ahead of its first
	// reader for every net the cone reads but does not compute (opGood for
	// the read frontier, opXorGood from the qDiff stripe for a cone
	// flip-flop's Q; seedEpoch dedups them), the cone's instruction chains
	// in topological order, one opDetect per cone output — everything
	// before swClock, which sweepCycle runs — and the clock section, one
	// opXorGood per cone flip-flop from its D slot into its qDiff
	// stripe, which Clock runs after the caller's retirements. Injection
	// masks are fused in: an injected site's chain, a masked frontier
	// seed, and the staged copy of an injected flip-flop's D are each
	// followed by one opMaskWord per stripe word that carries a mask bit,
	// reading that word of the site's two mask stripes — ^sa0 then sa1
	// (maskSlot maps site → first slot while maskSlotEpoch matches;
	// RetireLane edits them in place). swVals holds, after the compiled
	// slots, those mask stripes, the detection stripe (slot qBase-1), the
	// qDiff stripes (from slot qBase; e.qDiff is that region) and, from
	// word rowBase, the copy of the trace row the good bits are read
	// from. swEvals is one sweep's cost in word-instructions and swBlocks
	// its cache blocks (see BlockSlots; block budgets shrink with lw) —
	// both count cone instructions and their mask words only, as budget
	// does. swept records which mode settled the current cycle (so Clock
	// advances the matching state); sweepNext, sweepStreak and retryAfter
	// drive the adaptive mode switch (see sweepRetryMin).
	swCode        []opcode
	swDst         []int32
	swA0          []int32
	swA1          []int32
	swA2          []int32
	swClock       int32
	swEvals       int64
	swBlocks      int64
	swVals        []uint64
	qBase         int32
	rowBase       int32
	maskSlot      []int32
	maskSlotEpoch []uint32
	seedEpoch     []uint32
	blkStamp      []uint32
	blkEpoch      uint32

	// Per-rDFF summaries so the event path's quiescent flip-flops cost
	// one word instead of a stripe scan: qAny[k] is the OR of qDiff's
	// stripe (the sweep program does not keep it; cycleInto refreshes it
	// when a batch returns to the event path), qMask[k] the OR of the
	// Q-site injection mask stripes (nonzero only for injected flip-flop
	// outputs). coneSlot maps a Netlist.DFFs ordinal in the cone to its k;
	// goodQ is BeginBatch's scratch for the fault-free packed state.
	qAny     []uint64
	qMask    []uint64
	coneSlot []int32
	goodQ    []uint64

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
	// The value stripes are sized once for the widest, fullest batch:
	// two mask stripes per site after the compiled slots, the detection
	// stripe, one qDiff stripe per flip-flop, the trace row (see swVals).
	dffs, maxSites := len(c.n.dffs), 63*lw
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
		swVals:        alignedWords((c.slots+2*maxSites+1+dffs)*lw + (c.numNets+63)/64),
		maskSlot:      make([]int32, c.numNets),
		maskSlotEpoch: make([]uint32, c.numNets),
		seedEpoch:     make([]uint32, c.numNets),
		blkStamp:      make([]uint32, c.slots+2*maxSites),
		aliasTo:       make([]int32, c.numNets),
		aliasEpoch:    make([]uint32, c.numNets),
		qAny:          make([]uint64, dffs),
		qMask:         make([]uint64, dffs),
		coneSlot:      make([]int32, dffs),
		goodQ:         make([]uint64, (dffs+63)/64),
	}
}

// alignedWords returns n zeroed words starting on a 64-byte boundary, so
// that no 4- or 8-word stripe of the sweep's values straddles a cache
// line whatever size class the allocation came from.
func alignedWords(n int) []uint64 {
	buf := make([]uint64, n+7)
	off := -int(uintptr(unsafe.Pointer(&buf[0]))>>3) & 7
	return buf[off : off+n]
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
			e.coneSlot[c.dffIndex[id]] = int32(len(e.rDFF))
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
	e.qBase = int32(c.slots + 2*len(e.sites) + 1)
	e.rowBase = (e.qBase + int32(len(e.rDFF))) * int32(lw)
	e.qDiff = e.swVals[int(e.qBase)*lw : e.rowBase]
	e.qAny = e.qAny[:len(e.rDFF)]
	e.qMask = e.qMask[:len(e.rDFF)]
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

	// Initial flip-flop divergence: each fault's saved state against the
	// fault-free batch-start state (the trace's base-cycle Q values), a
	// state word at a time — a lane has diverged in few flip-flops, so
	// only the set bits are visited — then masked for Q-site faults: the
	// analogue of SetLaneState + ApplyInjectionsToValues on the reference
	// simulator.
	clear(e.qDiff)
	trace.StateInto(base, n.dffs, e.goodQ)
	for li, st := range laneStates {
		if st == nil {
			continue
		}
		w, bit := li/63, uint64(2)<<uint(li%63)
		for j, g := range e.goodQ {
			for x := st[j] ^ g; x != 0; x &= x - 1 {
				di := j<<6 + bits.TrailingZeros64(x)
				if e.rEpoch[n.dffs[di]] == e.epoch {
					e.qDiff[int(e.coneSlot[di])*lw+w] |= bit
				}
			}
		}
	}
	for k, di := range e.rDFF {
		q := n.dffs[di]
		good := trace.Word(base, q)
		qd := e.qDiff[k*lw:][:lw]
		for w := range qd {
			b := int(q)*lw + w
			qd[w] = ((((good ^ qd[w]) &^ e.sa0[b]) | e.sa1[b]) ^ good) &^ 1
		}
		e.qAny[k] = orOf(qd)
		e.qMask[k] = e.siteMask(q)
	}
}

// siteMask is the OR of net id's injection mask stripes: nonzero while
// a live fault of the batch sits on it.
func (e *EventSim) siteMask(id NetID) uint64 {
	b := int(id) * e.lw
	return orOf(e.sa0[b:][:e.lw]) | orOf(e.sa1[b:][:e.lw])
}

// orOf is the OR of a stripe's words.
func orOf(stripe []uint64) (any uint64) {
	for _, w := range stripe {
		any |= w
	}
	return any
}

// buildSweep writes the batch's sweep program (see swCode): the cone's
// instruction chains compacted (rWork is already in topological order)
// and counted into cache blocks by the distinct-slot budget, the seed of
// every real-net slot that something reads but no cone instruction
// computes, the detection scan and the clock section.
//
// Mask-free buffer chains are copy-propagated away instead of emitted:
// on a fanout-branched netlist most "gates" are branch buffers whose
// sweep evaluation is a plain copy, so eliding them and rewriting every
// later reference — operand, D pin or output — to read the source
// directly shrinks the program that runs every dense cycle; only a
// buffer an injection mask applies to keeps its own slot. The event path
// is untouched — it evaluates the full compiled program, where the
// buffers still exist.
func (e *EventSim) buildSweep() {
	c, lw := e.c, e.lw
	e.swCode = e.swCode[:0]
	e.swDst = e.swDst[:0]
	e.swA0 = e.swA0[:0]
	e.swA1 = e.swA1[:0]
	e.swA2 = e.swA2[:0]
	nextMaskSlot := int32(c.slots)
	// Cache blocks are cut by a distinct-slot budget: BlockSlots
	// single-word slots, shrunk by the stripe width so that a block's
	// byte footprint stays constant as lanes widen.
	e.swBlocks = 0
	e.blkEpoch++
	blkBudget, blkCount := max(BlockSlots/lw, 256), 0
	note := func(slot int32) {
		if e.blkStamp[slot] != e.blkEpoch {
			e.blkStamp[slot] = e.blkEpoch
			blkCount++
		}
	}
	put := func(op opcode, dst, a0, a1, a2 int32) {
		e.swCode = append(e.swCode, op)
		e.swDst = append(e.swDst, dst)
		e.swA0 = append(e.swA0, a0)
		e.swA1 = append(e.swA1, a1)
		e.swA2 = append(e.swA2, a2)
	}
	// emit is put for a cone instruction: what the cost counters and the
	// event budget are made of.
	coneOps, maskOps, blockStart := 0, 0, 0
	emit := func(op opcode, dst, a0, a1, a2 int32) {
		put(op, dst, a0, a1, a2)
		coneOps++
		if blkCount > blkBudget {
			e.swBlocks++
			e.blkEpoch++
			blkCount, blockStart = 0, coneOps
		}
	}
	// maskWords forces the stripe at slot to site id's stuck values,
	// v = (v &^ sa0) | sa1 in each word that has a mask bit. The site's
	// mask stripes — m0 holds ^sa0, m0+1 holds sa1 — are what RetireLane
	// edits in place.
	maskWords := func(id NetID, slot int32, out func(opcode, int32, int32, int32, int32)) {
		m0, mb := nextMaskSlot, int(id)*lw
		nextMaskSlot += 2
		e.maskSlot[id] = m0
		e.maskSlotEpoch[id] = e.epoch
		for w := 0; w < lw; w++ {
			e.swVals[int(m0)*lw+w] = ^e.sa0[mb+w]
			e.swVals[int(m0+1)*lw+w] = e.sa1[mb+w]
			if e.sa0[mb+w]|e.sa1[mb+w] != 0 {
				out(opMaskWord, slot, slot, m0, int32(w))
			}
		}
	}
	good := func(net int32) (word, bit int32) { return e.rowBase + net>>6, net & 63 }
	// read resolves a referenced slot through the aliases and, the first
	// time nothing in the cone produces it, seeds it ahead of the reader:
	// a cone flip-flop's Q from its divergence stripe, anything else — the
	// read frontier — from the good row, masked if it is an injected
	// primary input or constant.
	read := func(op int32) int32 {
		if int(op) < c.numNets && e.aliasEpoch[op] == e.epoch {
			op = e.aliasTo[op]
		}
		if int(op) >= c.numNets || e.combEpoch[op] == e.epoch || e.seedEpoch[op] == e.epoch {
			return op
		}
		e.seedEpoch[op] = e.epoch
		gw, gb := good(op)
		if di := c.dffIndex[op]; di >= 0 && e.rEpoch[op] == e.epoch {
			put(opXorGood, op, e.qBase+e.coneSlot[di], gw, gb)
		} else {
			put(opGood, op, op, gw, gb)
			if e.siteMask(NetID(op)) != 0 {
				maskWords(NetID(op), op, put)
			}
		}
		return op
	}
	for _, id := range e.rWork {
		ps, pe := c.pcStart[id], c.pcEnd[id]
		masked := e.siteMask(id) != 0
		if !masked && pe-ps == 1 && c.code[ps] == opBuf {
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
		if masked {
			// Fused mask application right after the chain's final
			// instruction.
			note(nextMaskSlot)
			note(nextMaskSlot + 1)
			before := coneOps
			maskWords(id, int32(id), emit)
			maskOps += coneOps - before
		}
	}
	if blockStart != coneOps {
		e.swBlocks++
	}
	e.swEvals = int64(coneOps-maskOps)*int64(lw) + int64(maskOps)
	e.budget = int(DefaultSweepThreshold * float64(coneOps-maskOps))
	if e.budget < 16 {
		e.budget = 16
	}

	// D pins are resolved here once so that a seed only a clock
	// instruction needs lands in the section sweepCycle runs.
	for _, di := range e.rDFF {
		read(int32(c.dNet[di]))
	}
	for _, oi := range e.rOut {
		o := int32(c.n.outputs[oi])
		gw, gb := good(o)
		put(opDetect, e.qBase-1, read(o), gw, gb)
	}
	// Clock: qDiff ← D ^ good(D). An injected flip-flop latches its D
	// through the Q site's masks, staged in the qDiff stripe itself.
	e.swClock = int32(len(e.swCode))
	for k, di := range e.rDFF {
		q, qd, d := c.n.dffs[di], e.qBase+int32(k), read(int32(c.dNet[di]))
		gw, gb := good(int32(c.dNet[di]))
		if e.siteMask(q) != 0 {
			put(opBuf, qd, d, 0, 0)
			maskWords(q, qd, put)
			d = qd
		}
		put(opXorGood, qd, d, gw, gb)
	}
	e.checkSweep()
}

// checkSweep panics unless every operand of the sweep program addresses
// swVals at the batch's width: the assembly kernels do not bounds-check,
// so what the Go runners would catch per access is stated once per
// program build, on both paths.
func (e *EventSim) checkSweep() {
	words, lw := int32(len(e.swVals)), int32(e.lw)
	slots := words / lw
	in := func(v, n int32) bool { return uint32(v) < uint32(n) }
	for pc, op := range e.swCode {
		a1, a2 := e.swA1[pc], e.swA2[pc]
		ok := in(e.swDst[pc], slots) && in(e.swA0[pc], slots)
		switch op {
		case opBuf, opNot:
		case opMux:
			ok = ok && in(a1, slots) && in(a2, slots)
		case opMaskWord:
			ok = ok && in(a1, slots-1) && in(a2, lw)
		case opGood, opXorGood, opDetect:
			ok = ok && in(a1, words) && in(a2, 64)
		default: // the two-operand gates, which the opcodes below opMux are
			ok = ok && op < opMux && in(a1, slots)
		}
		if !ok {
			panic(fmt.Sprintf("logic: sweep instruction %d (opcode %d, dst %d, operands %d %d %d) addresses outside %d stripes of %d words",
				pc, op, e.swDst[pc], e.swA0[pc], a1, a2, slots, lw))
		}
	}
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
	if e.swept {
		// Back on the event path after a clock the sweep program ran,
		// which keeps no per-flip-flop summary.
		for k := range e.qAny {
			e.qAny[k] = orOf(e.qDiff[k*lw:][:lw])
		}
	}
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

// sweepCycle settles the current cycle by running the sweep program up
// to its clock section over absolute value stripes — the same cost
// profile as the full-sweep CompiledSim, but confined to the cone and
// amortized over lw words per instruction dispatch. The program reads
// the fault-free bits it seeds and compares with from its own copy of
// the trace row.
func (e *EventSim) sweepCycle(det []uint64) {
	lw := e.lw
	copy(e.swVals[e.rowBase:], e.row)
	acc := e.swVals[int(e.qBase-1)*lw:][:lw]
	clear(acc)
	e.runSweep(0, e.swClock)
	e.stats.Blocks += e.swBlocks
	for w := range acc {
		det[w] = acc[w] &^ 1
	}
}

// SweepISA names the instruction set runSweep's 2-, 4- and 8-word
// stripe runners use in this process: "avx2" for the assembly kernels,
// "none" for the portable Go runners. The build and the CPU decide;
// nothing else selects.
func SweepISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "none"
}

// runSweep executes sweep-program instructions [ps, pe) at the width of
// the current batch: on the assembly kernel for that width where the
// build and the CPU have one (see simdStripes), otherwise on the Go
// runners — specialized for 1, 4 and 8 words — which are also what the
// kernels are tested against.
func (e *EventSim) runSweep(ps, pe int32) {
	if ps >= pe || simdStripes(e.lw, e.swCode, e.swDst, e.swA0, e.swA1, e.swA2, e.swVals, ps, pe) {
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
// needs no lookahead. After a sweep-mode settle it is the program's
// clock section, which reads D values and mask stripes out of swVals
// and writes only qDiff. After an event-mode settle a single pass is
// safe even for direct Q→D chains: reading a Q operand consults
// diff/divStamp (seeded at the top of Cycle), which this loop never
// writes. Out-of-cone flip-flops cannot diverge and are left to the
// trace.
func (e *EventSim) Clock() {
	c, lw := e.c, e.lw
	if e.swept {
		e.runSweep(e.swClock, int32(len(e.swCode)))
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
	if di := e.c.dffIndex[site]; di >= 0 && e.rEpoch[site] == e.epoch {
		e.qMask[e.coneSlot[di]] = e.siteMask(site)
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
			e.coneSlot[di] = int32(nd)
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
