package logic

// compile.go flattens a levelized Netlist into a compact evaluation
// program so simulation kernels can run without chasing Gate structs or
// variable-length In slices. The program is a struct-of-arrays
// instruction stream: one opcode byte plus up to three inline operand
// indices per instruction. Variadic gates (AND/OR/XOR and their
// inverted forms over 3+ inputs) are decomposed into chains of binary
// instructions writing to temporary value slots past the real nets, so
// every instruction in the inner loop is a fixed-shape binary or
// ternary word operation.
//
// The compiled form also carries the metadata the cone kernel (ConeSim)
// needs to cut a batch's sweep program out of it: the instruction range
// implementing each net, a CSR-flattened fanout table, and dense lookup
// tables from nets to DFF/output ordinals.

// opcode is one compiled gate operation. The inverted forms exist so a
// decomposed NAND/NOR/XNOR chain applies its inversion in the final
// instruction — the one that drives the real net and takes the
// injection masks.
type opcode uint8

const (
	opBuf opcode = iota
	opNot
	opAnd2
	opOr2
	opNand2
	opNor2
	opXor2
	opXnor2
	opMux
	// opMaskWord exists only in the cone kernel's sweep program: it
	// forces one word of an injected site's stripe, word a2 of slot dst
	// (== a0), to (v & m0) | m1, where m0 and m1 are the same word of the
	// mask stripes at slots a1 and a1+1 (see ConeSim.buildSweep).
	opMaskWord
	// The last three are sweep-only too, and are what makes a cycle one
	// program: each broadcasts g, a net's fault-free bit — bit a2 of word
	// a1 of vals, which is where ConeSim.Cycle copies the trace row —
	// across the stripe. opGood seeds a frontier net (dst = g), opXorGood
	// seeds a flip-flop's Q from its divergence stripe and clocks the
	// divergence from its D (dst = a0 ^ g), opDetect accumulates an
	// output's divergence (dst |= a0 ^ g).
	opGood
	opXorGood
	opDetect
)

// goodOf broadcasts bit `bit` of vals[word] (see opGood).
func goodOf(vals []uint64, word, bit int32) uint64 {
	return -(vals[word] >> (uint(bit) & 63) & 1)
}

// goodStripe executes opGood, opXorGood and opDetect on a stripe of any
// width for the three stripe runners, g being the broadcast bit.
func goodStripe(op opcode, dv, xv []uint64, g uint64) {
	switch op {
	case opGood:
		for w := range dv {
			dv[w] = g
		}
	case opXorGood:
		for w := range dv {
			dv[w] = xv[w] ^ g
		}
	case opDetect:
		for w := range dv {
			dv[w] |= xv[w] ^ g
		}
	}
}

// Compiled is the immutable evaluation program for one Netlist.
type Compiled struct {
	n *Netlist

	// Instruction stream (SoA). dst values >= numNets address temporary
	// slots used by decomposed variadic chains; temporaries carry no
	// injection masks and no fanout.
	code []opcode
	dst  []int32
	a0   []int32
	a1   []int32
	a2   []int32

	numNets int // real nets (== n.NumNets())
	slots   int // numNets + temporaries

	// pcStart/pcEnd delimit the instruction chain evaluating each
	// combinational net (zero-length for inputs, constants and DFFs).
	// Chains are contiguous and emitted in schedule order, so executing
	// pcs 0..len(code) is a full frame sweep.
	pcStart []int32
	pcEnd   []int32

	// schedule is the emission order: every combinational net exactly
	// once, topologically sorted, cone-clustered for cache locality.
	// Where Netlist.order is level-major (all of level k before level
	// k+1, so consecutive instructions read operands scattered across
	// the whole previous level), the schedule is built by depth-first
	// postorder from each sink — flip-flop D pins first, then primary
	// outputs — so a sink's entire fanin cone is emitted contiguously
	// and an instruction's operands were usually produced a short
	// distance above it. Any topological order yields bit-identical
	// simulation results; only the memory-access pattern changes.
	schedule []NetID

	// blockOff partitions the schedule's instruction stream into cache
	// blocks: block b is instructions [blockOff[b], blockOff[b+1]), cut
	// when the block's distinct value-slot working set would exceed
	// BlockSlots. The cone kernel counts its per-batch sweep program
	// into blocks by the same budget, scaled down by the lane-word count
	// (see ConeSim.buildSweep).
	blockOff []int32

	// orderPos is each combinational net's chain position in emission
	// order (-1 for non-combinational nets); sorting a net subset by
	// orderPos yields a valid evaluation order.
	orderPos []int32

	// CSR fanout over real nets: readers of net i are
	// foList[foOff[i]:foOff[i+1]].
	foOff  []int32
	foList []NetID

	// dffIndex / outIndex map a net to its ordinal in Netlist.DFFs /
	// Netlist.Outputs, or -1.
	dffIndex []int32
	outIndex []int32

	// dNet is each flip-flop's D net, by Netlist.DFFs ordinal.
	dNet []NetID

	// The fault-free machine's program (see buildFill).
	fill fillProgram
}

// fillProgram is the compiled program with every single-buffer chain —
// fanout branches, port aliases; two thirds of the instructions on the
// branched DSP core — aliased to its source, over value slots numbered
// densely: the non-combinational nets (inputs, constants, flip-flops) in
// net order, then the nets the program computes in schedule order, then
// the chain temporaries. No injection mask can apply to the fault-free
// machine, so nothing needs a buffer's own slot: slot maps every net,
// elided or not, to the dense slot that holds its value, and slots
// [0, bits) — each distinct net value once — are a trace row in the
// order the program leaves them. GoodTrace.Extend runs it.
type fillProgram struct {
	code            []opcode
	dst, a0, a1, a2 []int32
	slot            []int32 // per real net
	bits            int     // dense slots holding net values: the trace row width
	nvals           int     // dense slots, temporaries included
}

// Compile builds the evaluation program for n. The result is immutable
// and safe for concurrent use by any number of simulators.
func Compile(n *Netlist) *Compiled {
	numNets := n.NumNets()
	c := &Compiled{
		n:        n,
		numNets:  numNets,
		slots:    numNets,
		pcStart:  make([]int32, numNets),
		pcEnd:    make([]int32, numNets),
		orderPos: make([]int32, numNets),
		dffIndex: make([]int32, numNets),
		outIndex: make([]int32, numNets),
	}
	for i := range c.orderPos {
		c.orderPos[i] = -1
		c.dffIndex[i] = -1
		c.outIndex[i] = -1
	}
	c.dNet = make([]NetID, len(n.dffs))
	for i, q := range n.dffs {
		c.dffIndex[q] = int32(i)
		c.dNet[i] = n.gates[q].In[0]
	}
	for i, o := range n.outputs {
		c.outIndex[o] = int32(i)
	}

	// Emit instruction chains in cone-clustered schedule order.
	c.schedule = buildSchedule(n)
	for pos, id := range c.schedule {
		c.orderPos[id] = int32(pos)
		c.pcStart[id] = int32(len(c.code))
		c.emitNet(id)
		c.pcEnd[id] = int32(len(c.code))
	}
	c.buildBlocks()
	c.buildFill()

	// CSR fanout.
	c.foOff = make([]int32, numNets+1)
	total := 0
	for i := 0; i < numNets; i++ {
		c.foOff[i] = int32(total)
		total += len(n.fanout[i])
	}
	c.foOff[numNets] = int32(total)
	c.foList = make([]NetID, 0, total)
	for i := 0; i < numNets; i++ {
		c.foList = append(c.foList, n.fanout[i]...)
	}
	return c
}

// buildSchedule computes the cone-clustered topological emission order:
// iterative depth-first postorder over the combinational nets, rooted at
// each flip-flop D pin and then each primary output, with any remaining
// nets (cones observed by nothing) appended in Netlist.order. Postorder
// emits a net only after every net it reads, and a net reached from an
// earlier root was already emitted, so the result is topological: in an
// acyclic combinational frame no net on the DFS stack can be read by a
// net beneath it.
func buildSchedule(n *Netlist) []NetID {
	// state: 0 = non-combinational, 1 = pending, 2 = scheduled/on stack.
	state := make([]uint8, n.NumNets())
	for _, id := range n.order {
		state[id] = 1
	}
	sched := make([]NetID, 0, len(n.order))
	type frame struct {
		id NetID
		in int32 // next input ordinal to descend into
	}
	var stack []frame
	visit := func(root NetID) {
		if state[root] != 1 {
			return
		}
		state[root] = 2
		stack = append(stack[:0], frame{id: root})
		for len(stack) > 0 {
			top := len(stack) - 1
			id := stack[top].id
			ins := n.gates[id].In
			if k := stack[top].in; int(k) < len(ins) {
				stack[top].in++
				if ch := ins[k]; state[ch] == 1 {
					state[ch] = 2
					stack = append(stack, frame{id: ch})
				}
				continue
			}
			sched = append(sched, id)
			stack = stack[:top]
		}
	}
	for _, q := range n.dffs {
		visit(n.gates[q].In[0])
	}
	for _, o := range n.outputs {
		visit(o)
	}
	for _, id := range n.order {
		visit(id)
	}
	return sched
}

// BlockSlots is the distinct value-slot budget of one cache block of the
// compiled program: 2048 slots × 8 bytes ≈ 16 KiB of single-word values,
// half a typical 32 KiB L1d so trace rows and instruction operands fit
// alongside. The cone kernel divides the budget by its lane-word count
// (wider stripes mean fewer slots per block at the same byte footprint);
// gate-eval counters and pprof on the Table-1 workload drove the choice
// — see docs/PERFORMANCE.md.
const BlockSlots = 2048

// buildBlocks partitions the instruction stream into cache blocks by
// walking it once, counting distinct slots touched (stamp-dedup) and
// cutting whenever a block's working set passes BlockSlots.
func (c *Compiled) buildBlocks() {
	stamp := make([]int32, c.slots)
	for i := range stamp {
		stamp[i] = -1
	}
	epoch := int32(0)
	count := 0
	note := func(slot int32) {
		if stamp[slot] != epoch {
			stamp[slot] = epoch
			count++
		}
	}
	c.blockOff = append(c.blockOff[:0], 0)
	for pc := range c.code {
		note(c.dst[pc])
		note(c.a0[pc])
		switch c.code[pc] {
		case opBuf, opNot:
		case opMux:
			note(c.a1[pc])
			note(c.a2[pc])
		default:
			note(c.a1[pc])
		}
		if count > BlockSlots {
			c.blockOff = append(c.blockOff, int32(pc+1))
			epoch++
			count = 0
		}
	}
	if last := int32(len(c.code)); len(c.blockOff) == 1 || c.blockOff[len(c.blockOff)-1] != last {
		c.blockOff = append(c.blockOff, last)
	}
}

// buildFill derives the buffer-free program from the compiled one and
// renumbers its operands into the dense slots (see fillProgram). The
// schedule is topological, so a buffer's source already has its final
// slot when the buffer is reached; temporaries were allocated in
// schedule order, so they keep their relative order past the nets.
func (c *Compiled) buildFill() {
	f := &c.fill
	f.slot = make([]int32, c.numNets)
	next := int32(0)
	for id, pos := range c.orderPos {
		if pos < 0 {
			f.slot[id] = next
			next++
		}
	}
	isBuf := func(id NetID) bool {
		ps := c.pcStart[id]
		return c.pcEnd[id]-ps == 1 && c.code[ps] == opBuf
	}
	for _, id := range c.schedule {
		if isBuf(id) {
			f.slot[id] = f.slot[c.a0[c.pcStart[id]]]
		} else {
			f.slot[id] = next
			next++
		}
	}
	f.bits = int(next)
	f.nvals = f.bits + c.slots - c.numNets
	dense := func(op int32) int32 {
		if int(op) < c.numNets {
			return f.slot[op]
		}
		return op - int32(c.numNets) + int32(f.bits) // chain temporary
	}
	for _, id := range c.schedule {
		if isBuf(id) {
			continue
		}
		for pc := c.pcStart[id]; pc < c.pcEnd[id]; pc++ {
			f.code = append(f.code, c.code[pc])
			f.dst = append(f.dst, dense(c.dst[pc]))
			f.a0, f.a1, f.a2 = append(f.a0, dense(c.a0[pc])), append(f.a1, dense(c.a1[pc])), append(f.a2, dense(c.a2[pc]))
		}
	}
}

// TraceBits returns the width in bits of the trace row GoodTrace.Extend
// records: one bit per dense fill slot holding a net value — every net
// but the elided buffers, whose bit is their source's.
func (c *Compiled) TraceBits() int { return c.fill.bits }

// emitNet appends the instruction chain computing net id.
func (c *Compiled) emitNet(id NetID) {
	g := &c.n.gates[id]
	switch g.Kind {
	case GateBuf:
		c.emit(opBuf, int32(id), int32(g.In[0]), 0, 0)
	case GateNot:
		c.emit(opNot, int32(id), int32(g.In[0]), 0, 0)
	case GateMux2:
		c.emit(opMux, int32(id), int32(g.In[0]), int32(g.In[1]), int32(g.In[2]))
	case GateAnd, GateNand, GateOr, GateNor, GateXor, GateXnor:
		var chain, final opcode
		switch g.Kind {
		case GateAnd:
			chain, final = opAnd2, opAnd2
		case GateNand:
			chain, final = opAnd2, opNand2
		case GateOr:
			chain, final = opOr2, opOr2
		case GateNor:
			chain, final = opOr2, opNor2
		case GateXor:
			chain, final = opXor2, opXor2
		default:
			chain, final = opXor2, opXnor2
		}
		acc := int32(g.In[0])
		for k := 1; k < len(g.In)-1; k++ {
			tmp := int32(c.slots)
			c.slots++
			c.emit(chain, tmp, acc, int32(g.In[k]), 0)
			acc = tmp
		}
		c.emit(final, int32(id), acc, int32(g.In[len(g.In)-1]), 0)
	default:
		// Inputs, constants and DFFs have no combinational program.
	}
}

func (c *Compiled) emit(op opcode, dst, a0, a1, a2 int32) {
	c.code = append(c.code, op)
	c.dst = append(c.dst, dst)
	c.a0 = append(c.a0, a0)
	c.a1 = append(c.a1, a1)
	c.a2 = append(c.a2, a2)
}

// CompiledFor returns n's evaluation program, compiling it on first
// use. The program is kept on the netlist, so every simulator sharing a
// circuit reuses one program and it is freed with its netlist. Netlists
// are immutable after Build; a rare duplicate Compile under contention
// is only wasted work.
func CompiledFor(n *Netlist) *Compiled {
	if c := n.compiled.Load(); c != nil {
		return c
	}
	c := Compile(n)
	if !n.compiled.CompareAndSwap(nil, c) {
		return n.compiled.Load()
	}
	return c
}

// Netlist returns the compiled circuit.
func (c *Compiled) Netlist() *Netlist { return c.n }

// readers returns the fanout of net id as a CSR slice.
func (c *Compiled) readers(id NetID) []NetID {
	return c.foList[c.foOff[id]:c.foOff[id+1]]
}

// runProgram executes instructions [ps, pe) against vals with no
// per-slot stuck-at masking — the hot path for fault-free settles and
// for the cone kernel's single-word sweep, whose injected sites carry
// their masks as opMaskWord instructions.
func runProgram(code []opcode, dst, a0, a1, a2 []int32, vals []uint64, ps, pe int32) {
	// Re-slice to a common constant bound so the compiler can hoist the
	// per-index bounds checks on the instruction arrays out of the loop
	// (the vals accesses keep theirs — the indices are data).
	code = code[ps:pe]
	dst = dst[ps:pe][:len(code)]
	a0 = a0[ps:pe][:len(code)]
	a1 = a1[ps:pe][:len(code)]
	a2 = a2[ps:pe][:len(code)]
	for pc := range code {
		var v uint64
		switch code[pc] {
		case opBuf:
			v = vals[a0[pc]]
		case opNot:
			v = ^vals[a0[pc]]
		case opAnd2:
			v = vals[a0[pc]] & vals[a1[pc]]
		case opOr2:
			v = vals[a0[pc]] | vals[a1[pc]]
		case opNand2:
			v = ^(vals[a0[pc]] & vals[a1[pc]])
		case opNor2:
			v = ^(vals[a0[pc]] | vals[a1[pc]])
		case opXor2:
			v = vals[a0[pc]] ^ vals[a1[pc]]
		case opXnor2:
			v = ^(vals[a0[pc]] ^ vals[a1[pc]])
		case opMux:
			sel := vals[a0[pc]]
			v = (vals[a1[pc]] &^ sel) | (vals[a2[pc]] & sel)
		case opMaskWord:
			v = vals[a0[pc]]&vals[a1[pc]] | vals[a1[pc]+1]
		case opGood:
			v = goodOf(vals, a1[pc], a2[pc])
		case opXorGood:
			v = vals[a0[pc]] ^ goodOf(vals, a1[pc], a2[pc])
		case opDetect:
			v = vals[dst[pc]] | (vals[a0[pc]] ^ goodOf(vals, a1[pc], a2[pc]))
		}
		vals[dst[pc]] = v
	}
}

// runProgramStripes executes instructions [ps, pe) against lw-word
// value stripes (vals[slot*lw : slot*lw+lw]) with no stuck-at masking —
// the multi-word generalization of runProgram used by the cone
// kernel's sweep when a batch spans more than one lane word. One
// instruction dispatch covers lw words, which is where widening the
// batch amortizes the per-instruction scheduling cost.
func runProgramStripes(code []opcode, dst, a0, a1, a2 []int32, vals []uint64, lw int, ps, pe int32) {
	code = code[ps:pe]
	dst = dst[ps:pe][:len(code)]
	a0 = a0[ps:pe][:len(code)]
	a1 = a1[ps:pe][:len(code)]
	a2 = a2[ps:pe][:len(code)]
	for pc := range code {
		dv := vals[int(dst[pc])*lw:][:lw]
		xv := vals[int(a0[pc])*lw:][:lw]
		switch code[pc] {
		case opBuf:
			copy(dv, xv)
		case opNot:
			for w := range dv {
				dv[w] = ^xv[w]
			}
		case opAnd2:
			yv := vals[int(a1[pc])*lw:][:lw]
			for w := range dv {
				dv[w] = xv[w] & yv[w]
			}
		case opOr2:
			yv := vals[int(a1[pc])*lw:][:lw]
			for w := range dv {
				dv[w] = xv[w] | yv[w]
			}
		case opNand2:
			yv := vals[int(a1[pc])*lw:][:lw]
			for w := range dv {
				dv[w] = ^(xv[w] & yv[w])
			}
		case opNor2:
			yv := vals[int(a1[pc])*lw:][:lw]
			for w := range dv {
				dv[w] = ^(xv[w] | yv[w])
			}
		case opXor2:
			yv := vals[int(a1[pc])*lw:][:lw]
			for w := range dv {
				dv[w] = xv[w] ^ yv[w]
			}
		case opXnor2:
			yv := vals[int(a1[pc])*lw:][:lw]
			for w := range dv {
				dv[w] = ^(xv[w] ^ yv[w])
			}
		case opMux:
			yv := vals[int(a1[pc])*lw:][:lw]
			zv := vals[int(a2[pc])*lw:][:lw]
			for w := range dv {
				dv[w] = (yv[w] &^ xv[w]) | (zv[w] & xv[w])
			}
		case opMaskWord:
			m, w := vals[int(a1[pc])*lw:][:2*lw], int(a2[pc])
			dv[w] = xv[w]&m[w] | m[lw+w]
		default:
			goodStripe(code[pc], dv, xv, goodOf(vals, a1[pc], a2[pc]))
		}
	}
}

// runProgramStripes4 is runProgramStripes specialized (and unrolled)
// for the common auto-tuned width of 4 lane words.
func runProgramStripes4(code []opcode, dst, a0, a1, a2 []int32, vals []uint64, ps, pe int32) {
	code = code[ps:pe]
	dst = dst[ps:pe][:len(code)]
	a0 = a0[ps:pe][:len(code)]
	a1 = a1[ps:pe][:len(code)]
	a2 = a2[ps:pe][:len(code)]
	for pc := range code {
		dv := vals[int(dst[pc])<<2:][:4]
		xv := vals[int(a0[pc])<<2:][:4]
		switch code[pc] {
		case opBuf:
			dv[0], dv[1], dv[2], dv[3] = xv[0], xv[1], xv[2], xv[3]
		case opNot:
			dv[0], dv[1], dv[2], dv[3] = ^xv[0], ^xv[1], ^xv[2], ^xv[3]
		case opAnd2:
			yv := vals[int(a1[pc])<<2:][:4]
			dv[0], dv[1], dv[2], dv[3] = xv[0]&yv[0], xv[1]&yv[1], xv[2]&yv[2], xv[3]&yv[3]
		case opOr2:
			yv := vals[int(a1[pc])<<2:][:4]
			dv[0], dv[1], dv[2], dv[3] = xv[0]|yv[0], xv[1]|yv[1], xv[2]|yv[2], xv[3]|yv[3]
		case opNand2:
			yv := vals[int(a1[pc])<<2:][:4]
			dv[0], dv[1], dv[2], dv[3] = ^(xv[0] & yv[0]), ^(xv[1] & yv[1]), ^(xv[2] & yv[2]), ^(xv[3] & yv[3])
		case opNor2:
			yv := vals[int(a1[pc])<<2:][:4]
			dv[0], dv[1], dv[2], dv[3] = ^(xv[0] | yv[0]), ^(xv[1] | yv[1]), ^(xv[2] | yv[2]), ^(xv[3] | yv[3])
		case opXor2:
			yv := vals[int(a1[pc])<<2:][:4]
			dv[0], dv[1], dv[2], dv[3] = xv[0]^yv[0], xv[1]^yv[1], xv[2]^yv[2], xv[3]^yv[3]
		case opXnor2:
			yv := vals[int(a1[pc])<<2:][:4]
			dv[0], dv[1], dv[2], dv[3] = ^(xv[0] ^ yv[0]), ^(xv[1] ^ yv[1]), ^(xv[2] ^ yv[2]), ^(xv[3] ^ yv[3])
		case opMux:
			yv := vals[int(a1[pc])<<2:][:4]
			zv := vals[int(a2[pc])<<2:][:4]
			dv[0] = (yv[0] &^ xv[0]) | (zv[0] & xv[0])
			dv[1] = (yv[1] &^ xv[1]) | (zv[1] & xv[1])
			dv[2] = (yv[2] &^ xv[2]) | (zv[2] & xv[2])
			dv[3] = (yv[3] &^ xv[3]) | (zv[3] & xv[3])
		case opMaskWord:
			m, w := vals[int(a1[pc])<<2:][:8], a2[pc]&3
			dv[w] = xv[w]&m[w] | m[4+w]
		default:
			goodStripe(code[pc], dv, xv, goodOf(vals, a1[pc], a2[pc]))
		}
	}
}

// runProgramStripes8 is runProgramStripes specialized (and unrolled)
// for 8 lane words, the widest auto-tuned stripe.
func runProgramStripes8(code []opcode, dst, a0, a1, a2 []int32, vals []uint64, ps, pe int32) {
	code = code[ps:pe]
	dst = dst[ps:pe][:len(code)]
	a0 = a0[ps:pe][:len(code)]
	a1 = a1[ps:pe][:len(code)]
	a2 = a2[ps:pe][:len(code)]
	for pc := range code {
		dv := vals[int(dst[pc])<<3:][:8]
		xv := vals[int(a0[pc])<<3:][:8]
		switch code[pc] {
		case opBuf:
			copy(dv, xv)
		case opNot:
			dv[0], dv[1], dv[2], dv[3] = ^xv[0], ^xv[1], ^xv[2], ^xv[3]
			dv[4], dv[5], dv[6], dv[7] = ^xv[4], ^xv[5], ^xv[6], ^xv[7]
		case opAnd2:
			yv := vals[int(a1[pc])<<3:][:8]
			dv[0], dv[1], dv[2], dv[3] = xv[0]&yv[0], xv[1]&yv[1], xv[2]&yv[2], xv[3]&yv[3]
			dv[4], dv[5], dv[6], dv[7] = xv[4]&yv[4], xv[5]&yv[5], xv[6]&yv[6], xv[7]&yv[7]
		case opOr2:
			yv := vals[int(a1[pc])<<3:][:8]
			dv[0], dv[1], dv[2], dv[3] = xv[0]|yv[0], xv[1]|yv[1], xv[2]|yv[2], xv[3]|yv[3]
			dv[4], dv[5], dv[6], dv[7] = xv[4]|yv[4], xv[5]|yv[5], xv[6]|yv[6], xv[7]|yv[7]
		case opNand2:
			yv := vals[int(a1[pc])<<3:][:8]
			dv[0], dv[1], dv[2], dv[3] = ^(xv[0] & yv[0]), ^(xv[1] & yv[1]), ^(xv[2] & yv[2]), ^(xv[3] & yv[3])
			dv[4], dv[5], dv[6], dv[7] = ^(xv[4] & yv[4]), ^(xv[5] & yv[5]), ^(xv[6] & yv[6]), ^(xv[7] & yv[7])
		case opNor2:
			yv := vals[int(a1[pc])<<3:][:8]
			dv[0], dv[1], dv[2], dv[3] = ^(xv[0] | yv[0]), ^(xv[1] | yv[1]), ^(xv[2] | yv[2]), ^(xv[3] | yv[3])
			dv[4], dv[5], dv[6], dv[7] = ^(xv[4] | yv[4]), ^(xv[5] | yv[5]), ^(xv[6] | yv[6]), ^(xv[7] | yv[7])
		case opXor2:
			yv := vals[int(a1[pc])<<3:][:8]
			dv[0], dv[1], dv[2], dv[3] = xv[0]^yv[0], xv[1]^yv[1], xv[2]^yv[2], xv[3]^yv[3]
			dv[4], dv[5], dv[6], dv[7] = xv[4]^yv[4], xv[5]^yv[5], xv[6]^yv[6], xv[7]^yv[7]
		case opXnor2:
			yv := vals[int(a1[pc])<<3:][:8]
			dv[0], dv[1], dv[2], dv[3] = ^(xv[0] ^ yv[0]), ^(xv[1] ^ yv[1]), ^(xv[2] ^ yv[2]), ^(xv[3] ^ yv[3])
			dv[4], dv[5], dv[6], dv[7] = ^(xv[4] ^ yv[4]), ^(xv[5] ^ yv[5]), ^(xv[6] ^ yv[6]), ^(xv[7] ^ yv[7])
		case opMux:
			yv := vals[int(a1[pc])<<3:][:8]
			zv := vals[int(a2[pc])<<3:][:8]
			dv[0] = (yv[0] &^ xv[0]) | (zv[0] & xv[0])
			dv[1] = (yv[1] &^ xv[1]) | (zv[1] & xv[1])
			dv[2] = (yv[2] &^ xv[2]) | (zv[2] & xv[2])
			dv[3] = (yv[3] &^ xv[3]) | (zv[3] & xv[3])
			dv[4] = (yv[4] &^ xv[4]) | (zv[4] & xv[4])
			dv[5] = (yv[5] &^ xv[5]) | (zv[5] & xv[5])
			dv[6] = (yv[6] &^ xv[6]) | (zv[6] & xv[6])
			dv[7] = (yv[7] &^ xv[7]) | (zv[7] & xv[7])
		case opMaskWord:
			m, w := vals[int(a1[pc])<<3:][:16], a2[pc]&7
			dv[w] = xv[w]&m[w] | m[8+w]
		default:
			goodStripe(code[pc], dv, xv, goodOf(vals, a1[pc], a2[pc]))
		}
	}
}

// evalInto executes instructions [ps, pe) against vals, applying the
// per-slot stuck-at masks: the full-sweep CompiledSim's injected settle.
func evalInto(c *Compiled, ps, pe int32, vals, sa0, sa1 []uint64) {
	code := c.code[ps:pe]
	dst := c.dst[ps:pe][:len(code)]
	a0 := c.a0[ps:pe][:len(code)]
	a1 := c.a1[ps:pe][:len(code)]
	a2 := c.a2[ps:pe][:len(code)]
	for pc := range code {
		var v uint64
		switch code[pc] {
		case opBuf:
			v = vals[a0[pc]]
		case opNot:
			v = ^vals[a0[pc]]
		case opAnd2:
			v = vals[a0[pc]] & vals[a1[pc]]
		case opOr2:
			v = vals[a0[pc]] | vals[a1[pc]]
		case opNand2:
			v = ^(vals[a0[pc]] & vals[a1[pc]])
		case opNor2:
			v = ^(vals[a0[pc]] | vals[a1[pc]])
		case opXor2:
			v = vals[a0[pc]] ^ vals[a1[pc]]
		case opXnor2:
			v = ^(vals[a0[pc]] ^ vals[a1[pc]])
		case opMux:
			sel := vals[a0[pc]]
			v = (vals[a1[pc]] &^ sel) | (vals[a2[pc]] & sel)
		}
		d := dst[pc]
		vals[d] = (v &^ sa0[d]) | sa1[d]
	}
}
