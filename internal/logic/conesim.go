package logic

import (
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/chaos"
)

// conesim.go is the compiled fault-simulation kernel's batch replayer.
// The fault simulator runs the fault-free machine once per segment
// (recording every net's value per cycle into a GoodTrace) and then
// replays each fault batch through a ConeSim. Only the injected sites'
// transitive fanout — closed through flip-flop D→Q edges — can diverge
// from the good machine, so per batch the ConeSim compiles that cone
// into one straight-line sweep program (see buildSweep) and reads
// everything outside it from the trace. A cycle runs the program over
// absolute value stripes: seeds from the trace row, the cone's
// instruction chains with the injection masks fused in, the detection
// scan; a clock section then latches each cone flip-flop's divergence
// from the good machine (qDiff), the only state one cycle hands the
// next.
//
// A batch spans laneWords (W) 64-bit words per net — bit 0 of every
// word is kept clear (the good machine lives in the trace), so one
// batch carries up to W×63 faults. The cone and its program are shared
// across the W words: one instruction dispatch amortizes over the whole
// stripe, which is where widening the batch beats running W separate
// 63-fault batches (their cones largely overlap, so the union cone is
// far smaller than W disjoint replays). Retiring detected faults shrinks
// the cone (see shrinkCone), so a batch's cycles get cheaper as its
// faults are dropped.

// MaxLaneWords bounds ConeSim stripe width. Memory per simulator grows
// linearly with it; the useful range tops out well below this (see
// docs/PERFORMANCE.md for the measured sweep).
const MaxLaneWords = 16

// BatchFault is one stuck-at injection for a ConeSim batch; the fault
// at index i of BeginBatch's slice occupies word i/63, lane 1 + i%63.
type BatchFault struct {
	Site NetID
	SA1  bool
}

// ConeSim replays one fault batch per segment against a GoodTrace.
// Usage per batch: BeginBatch, then per cycle Cycle followed by Clock,
// then LaneStateInto per surviving lane and EndBatch.
type ConeSim struct {
	c     *Compiled
	maxLW int // lane words per stripe the arrays are sized for (W)
	lw    int // lane words per stripe of the current batch (see BeginBatch)

	// Per-net injection mask stripes (sa0[net*lw+w]; real nets only —
	// the final instruction of a chain is the only masked one).
	sa0      []uint64
	sa1      []uint64
	injected []NetID

	// Batch membership is epoch-stamped so teardown is O(1).
	epoch     uint32
	rEpoch    []uint32 // net reachable from an injected site
	combEpoch []uint32 // reachable and combinational (computed by the program)

	trace *GoodTrace
	rAll  []NetID  // every reachable net (BFS order)
	rWork []NetID  // reachable combinational nets, topological order
	rDFF  []int32  // ordinals into Netlist.DFFs of reachable flip-flops
	qDiff []uint64 // per-rDFF state divergence stripes (stride lw)
	rOut  []int32  // ordinals into Netlist.Outputs of reachable outputs
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

	// The sweep program: a cycle is one straight-line program over
	// absolute value stripes (swVals), in execution order: a seed ahead
	// of its first reader for every net the cone reads but does not
	// compute (opGood for the read frontier, opXorGood from the qDiff
	// stripe for a cone flip-flop's Q; seedEpoch dedups them), the cone's
	// instruction chains in topological order, one opDetect per cone
	// output — everything before swClock, which Cycle runs — and the
	// clock section, one opXorGood per cone flip-flop from its D slot into
	// its qDiff stripe, which Clock runs after the caller's retirements.
	// Injection masks are fused in: an injected site's chain, a masked
	// frontier seed, and the staged copy of an injected flip-flop's D are
	// each followed by one opMaskWord per stripe word that carries a mask
	// bit, reading that word of the site's two mask stripes — ^sa0 then
	// sa1 (maskSlot maps site → first slot while maskSlotEpoch matches;
	// RetireLane edits them in place). swVals holds, after the compiled
	// slots, those mask stripes, the detection stripe (slot qBase-1), the
	// qDiff stripes (from slot qBase; e.qDiff is that region) and, from
	// word rowBase, the copy of the trace row the good bits are read
	// from. swEvals is one sweep's cost in word-instructions and swBlocks
	// its cache blocks (see BlockSlots; block budgets shrink with lw) —
	// both count cone instructions and their mask words only.
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

	// coneSlot maps a Netlist.DFFs ordinal in the cone to its qDiff
	// stripe; goodQ is BeginBatch's scratch for the fault-free packed
	// state.
	coneSlot []int32
	goodQ    []uint64

	// Buffer copy-propagation: mask-free single-buffer chains (fanout
	// branches, output aliases) are elided from the sweep program and
	// every later reference to them — operand, D pin or output — is
	// rewritten to their source (aliasTo, valid while aliasEpoch matches
	// the batch epoch). On the fanout-branched DSP core buffers are about
	// two thirds of the compiled program, so this more than halves the
	// cost of a cycle.
	aliasTo    []int32
	aliasEpoch []uint32

	stats BatchStats
}

// BatchStats is what one batch replay cost: word-instruction
// evaluations executed (a stripe instruction counts its lane words, an
// opMaskWord one), evaluations saved by sweeping the cone instead of the
// full frame, sweep cache blocks run, and batch-cycles run.
type BatchStats struct {
	Evals, Saved, Blocks, Cycles int64
}

// Add accumulates o into s.
func (s *BatchStats) Add(o BatchStats) {
	s.Evals += o.Evals
	s.Saved += o.Saved
	s.Blocks += o.Blocks
	s.Cycles += o.Cycles
}

// NewConeSim returns a ConeSim for the compiled circuit with stripes
// of laneWords words (clamped to [1, MaxLaneWords]); a batch carries up
// to 63×laneWords faults.
func NewConeSim(c *Compiled, laneWords int) *ConeSim {
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
	return &ConeSim{
		c:     c,
		maxLW: lw,
		lw:    lw,
		// Masks are slot-sized (temporaries are never injected and stay
		// zero) so the sweep can apply them by instruction destination.
		sa0:           make([]uint64, c.slots*lw),
		sa1:           make([]uint64, c.slots*lw),
		rEpoch:        make([]uint32, c.numNets),
		combEpoch:     make([]uint32, c.numNets),
		retired:       make([]uint64, lw),
		swVals:        alignedWords((c.slots+2*maxSites+1+dffs)*lw + (c.numNets+63)/64),
		maskSlot:      make([]int32, c.numNets),
		maskSlotEpoch: make([]uint32, c.numNets),
		seedEpoch:     make([]uint32, c.numNets),
		blkStamp:      make([]uint32, c.slots+2*maxSites),
		aliasTo:       make([]int32, c.numNets),
		aliasEpoch:    make([]uint32, c.numNets),
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
func (e *ConeSim) LaneWords() int { return e.maxLW }

// BeginBatch installs a fault batch: injection masks, the reachable
// cone (transitive fanout of the sites, closed through DFF D→Q edges)
// and its sweep program, and each fault's initial flip-flop divergence
// from laneStates (packed per Netlist.DFFs order; nil means the fault
// starts at the fault-free state). The trace must already hold the
// fault-free run through the cycles this batch will replay; base is the
// absolute cycle the batch starts at (laneStates describe the machine
// entering that cycle).
//
// The batch runs on stripes fitted to it: the narrowest of 1, 2, 4 and
// W words that holds the faults, so a part-filled batch (a fault list's
// tail; every batch, once survivors thin out) sweeps no empty lane
// words. Every array is per-batch scratch, so the stride can change
// between batches; Cycle fills, and RetireLane and LaneStateInto
// address, only the words in use.
func (e *ConeSim) BeginBatch(faults []BatchFault, trace *GoodTrace, base int, laneStates [][]uint64) {
	if len(faults) > 63*e.maxLW {
		panic(fmt.Sprintf("logic: ConeSim batch of %d faults exceeds %d lanes (%d words)",
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
			e.injected = append(e.injected, f.Site)
		}
	}
	sites := len(e.rAll) // distinct sites: two mask stripes each

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
	e.qBase = int32(c.slots + 2*sites + 1)
	e.rowBase = (e.qBase + int32(len(e.rDFF))) * int32(lw)
	e.qDiff = e.swVals[int(e.qBase)*lw : e.rowBase]
	e.buildSweep()
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
	}
}

// siteMask is the OR of net id's injection mask stripes: nonzero while
// a live fault of the batch sits on it.
func (e *ConeSim) siteMask(id NetID) uint64 {
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
// directly shrinks the program that runs every cycle; only a buffer an
// injection mask applies to keeps its own slot.
func (e *ConeSim) buildSweep() {
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
	// emit is put for a cone instruction: what the cost counters are made
	// of.
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
	good := func(net int32) (word, bit int32) {
		k := e.trace.bitOf(NetID(net))
		return e.rowBase + k>>6, k & 63
	}
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

	// D pins are resolved here once so that a seed only a clock
	// instruction needs lands in the section Cycle runs.
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
func (e *ConeSim) checkSweep() {
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

// Cycle settles the given absolute cycle and fills det (length
// LaneWords; the words the batch occupies are written) with the OR-ed
// per-output lane-difference stripe against the fault-free machine (bit
// 0 of every word always clear). It runs the sweep program up to its
// clock section on a copy of the cycle's trace row: the frontier's
// values are the good machine's — it saw the same vectors — so no
// vector is needed, and the only state read from earlier cycles is
// qDiff. Call Clock afterwards to advance state.
//
// The logic.eventsim.diff chaos point (internal/chaos) can corrupt the
// returned mask — one seeded-random lane-bit flip — to model a silently
// wrong compiled-kernel batch; the engine's shadow cross-check exists
// to catch exactly this class of failure.
func (e *ConeSim) Cycle(cycle int, det []uint64) {
	if e.pendingShrink {
		e.shrinkCone()
	}
	lw := e.lw
	copy(e.swVals[e.rowBase:], e.trace.row(cycle))
	acc := e.swVals[int(e.qBase-1)*lw:][:lw]
	clear(acc)
	e.runSweep(0, e.swClock)
	for w := range acc {
		det[w] = acc[w] &^ 1
	}
	e.stats.Cycles++
	e.stats.Evals += e.swEvals
	e.stats.Saved += int64(len(e.c.code))*int64(lw) - e.swEvals
	e.stats.Blocks += e.swBlocks
	// The point is named for the kernel's former type and keeps that wire
	// name: chaos specs, docs/RESILIENCE.md and the engine's chaos tests
	// spell it as a string.
	if f := chaos.Maybe("logic.eventsim.diff"); f != nil {
		det[0] = f.CorruptWord(det[0]) &^ 1
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
func (e *ConeSim) runSweep(ps, pe int32) {
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
// injection masks) for the cycle just settled by Cycle: it runs the
// program's clock section, which reads D values and mask stripes out of
// swVals and writes only qDiff. The good machine's next Q value is its
// current D value, so the new divergence needs no lookahead.
// Out-of-cone flip-flops cannot diverge and are left to the trace.
func (e *ConeSim) Clock() {
	e.runSweep(e.swClock, int32(len(e.swCode)))
}

// RetireLane removes the fault in the given stripe word and lane from
// the batch: its injection mask bit and any state divergence it
// accumulated are cleared, so its divergence stops being simulated from
// the next cycle on. The fault simulator calls this once a fault
// reaches its detection quota; once half the batch has retired the cone
// is rebuilt around the survivors (see shrinkCone), so later cycles pay
// only for the still-live faults. Surviving lanes are unaffected (lanes
// never interact).
func (e *ConeSim) RetireLane(word int, lane uint) {
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
func (e *ConeSim) shrinkCone() {
	c, n := e.c, e.c.n
	lw := e.lw
	e.pendingShrink = false
	e.epoch++
	e.rAll = e.rAll[:0]
	for i, s := range e.laneSite {
		if e.retired[i/63]>>(uint(1+i%63))&1 == 0 && e.rEpoch[s] != e.epoch {
			e.rEpoch[s] = e.epoch
			e.rAll = append(e.rAll, s)
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
			nd++
		}
	}
	e.rDFF = e.rDFF[:nd]
	e.qDiff = e.qDiff[:nd*lw]
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
}

// LaneStateInto writes one fault lane's packed DFF state to dst: the
// fault-free next state nextGood with the lane's in-cone flip-flop
// divergence bits flipped (out-of-cone flip-flops never diverge).
func (e *ConeSim) LaneStateInto(word int, lane uint, nextGood, dst []uint64) {
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
func (e *ConeSim) EndBatch() BatchStats {
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
