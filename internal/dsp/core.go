package dsp

import (
	"fmt"

	"repro/internal/isa"
)

// Mask18 masks an accumulator-width (18-bit) value.
const Mask18 = 1<<18 - 1

// ctrl is the decoded control word: the seven MAC control bits the paper
// describes (sub, accumulator select, truncate, two shifter mode bits,
// and the two operand-zeroing mux selects) plus pipeline controls.
type ctrl struct {
	// MAC control bits.
	sub      bool  // adder/subtracter: 1 = subtract (addA - addB)
	accB     bool  // accumulator select: 1 = AccB
	truncEn  bool  // truncater enable
	mode     uint8 // shifter mode (2 bits, see synth.ShifterMode)
	zeroAcc  bool  // adder A operand: 1 = zero instead of shifted acc
	zeroProd bool  // adder B operand: 1 = zero instead of product

	// Pipeline controls.
	macFamily  bool // instruction result comes from the MAC (writes acc)
	isLdi      bool // stage-3 buffer takes the immediate
	isOut      bool // drives the output port in WB
	readSrc    bool // port A reads the Source field (bits 7:4) — OUT/MOV
	writesDest bool
}

// decodeCtrl derives the control word for an operation; it is the
// behavioral counterpart of the second-stage decoder.
func decodeCtrl(op isa.Op, acc isa.Acc) ctrl {
	c := ctrl{
		accB:       acc == isa.AccB,
		macFamily:  op.MacFamily(),
		writesDest: op.WritesDest(),
	}
	switch op {
	case isa.OpLdi, isa.OpLdRnd:
		c.isLdi = true
	case isa.OpMov:
		c.readSrc = true
	case isa.OpOut:
		c.isOut = true
		c.readSrc = true
	case isa.OpMpy:
		c.zeroAcc = true
	case isa.OpMpyT:
		c.zeroAcc = true
		c.truncEn = true
	case isa.OpMacP:
		// acc = acc + prod, shifter passes.
	case isa.OpMacM:
		c.sub = true // acc - prod
	case isa.OpMactP:
		c.truncEn = true
	case isa.OpMactM:
		c.sub = true
		c.truncEn = true
	case isa.OpShift:
		c.mode = 1 // variable
		c.zeroProd = true
	case isa.OpMpyShift:
		c.mode = 2 // left-1
	case isa.OpMpyShiftMac:
		c.mode = 1 // variable
	}
	return c
}

// exRegs are the pipeline registers feeding the execute stage.
type exRegs struct {
	c      ctrl
	opA    uint8 // MAC operand A (also supplies the shift amount nibble)
	opB    uint8 // MAC operand B
	imm    uint8
	srcVal uint8 // source register value for MOV/OUT
	dest   uint8
}

// wbRegs are the pipeline registers feeding the writeback stage. The
// data register doubles as the forwarding (temporary) register.
type wbRegs struct {
	data    uint8
	dest    uint8
	writeEn bool
	outEn   bool
	outVal  uint8
}

// Core is the behavioral DSP core. The zero value is not ready;
// use New.
type Core struct {
	probe Probe

	regs    [isa.NumRegs]uint8
	accA    uint32 // 18-bit
	accB    uint32 // 18-bit
	outPort uint8

	ir uint32 // stage-1 instruction register
	ex exRegs
	wb wbRegs

	cycle int64
}

// New returns a reset Core with no probe installed.
func New() *Core { return &Core{} }

// SetProbe installs (or removes, with nil) the component probe.
func (c *Core) SetProbe(p Probe) { c.probe = p }

// Reset returns all architectural and pipeline state to zero.
func (c *Core) Reset() {
	p := c.probe
	*c = Core{probe: p}
}

// Output returns the current value of the 8-bit output port.
func (c *Core) Output() uint8 { return c.outPort }

// Reg returns register i's current value.
func (c *Core) Reg(i int) uint8 { return c.regs[i] }

// SetReg pokes a register (test and metrics setup).
func (c *Core) SetReg(i int, v uint8) { c.regs[i] = v }

// AccValue returns the selected accumulator's raw 18-bit contents.
func (c *Core) AccValue(a isa.Acc) uint32 {
	if a == isa.AccB {
		return c.accB
	}
	return c.accA
}

// SetAcc pokes an accumulator (test and metrics setup).
func (c *Core) SetAcc(a isa.Acc, v uint32) {
	if a == isa.AccB {
		c.accB = v & Mask18
	} else {
		c.accA = v & Mask18
	}
}

func (c *Core) observe(comp Component, mode int, value uint32) uint32 {
	if c.probe == nil {
		return value
	}
	mask := uint32(1)<<uint(comp.Width()) - 1
	return c.probe.Observe(comp, mode, value&mask) & mask
}

func (c *Core) signal(sig Signal, value uint32) {
	if c.probe == nil {
		return
	}
	sp, ok := c.probe.(SignalProbe)
	if !ok {
		return
	}
	mask := uint32(1)<<uint(sig.Width()) - 1
	sp.Signal(sig, value&mask)
}

// SignExtend18 interprets an 18-bit value as signed.
func SignExtend18(v uint32) int32 {
	v &= Mask18
	if v>>17&1 == 1 {
		return int32(v) - (1 << 18)
	}
	return int32(v)
}

// shift18 mirrors synth.BarrelShifter: mode pass/variable/left1/right1,
// 4-bit signed amount, zero fill left, sign fill right.
func shift18(v uint32, mode uint8, amt uint8) uint32 {
	sv := SignExtend18(v)
	switch mode {
	case 0:
		return v & Mask18
	case 1:
		s := int(amt & 0xF)
		if s >= 8 {
			s -= 16
		}
		if s >= 0 {
			return uint32(sv<<uint(s)) & Mask18
		}
		return uint32(sv>>uint(-s)) & Mask18
	case 2:
		return uint32(sv<<1) & Mask18
	case 3:
		return uint32(sv>>1) & Mask18
	}
	panic(fmt.Sprintf("dsp: bad shifter mode %d", mode))
}

// limit8 mirrors synth.Limiter(lo=4, outW=8): the 18-bit (10.8 fixed
// point) value is windowed to bits [11:4] (4.4 output format) with
// saturation.
func limit8(v uint32) uint8 {
	sv := SignExtend18(v)
	w := sv >> 4
	if w > 127 {
		return 0x7F
	}
	if w < -128 {
		return 0x80
	}
	return uint8(w)
}

// Step advances one clock cycle, fetching instrWord (17 bits) into the
// pipeline and retiring whatever reaches writeback.
func (c *Core) Step(instrWord uint32) {
	// ---- Stage 2: decode + register read (uses c.ir) ----
	var exNext exRegs
	if in, err := isa.Decode(c.ir); err == nil {
		exNext.c = decodeCtrl(in.Op, in.Acc)
		exNext.imm = in.Imm
		exNext.dest = in.RD

		// Read-port addresses come from fixed instruction bit positions,
		// as in the hardware: port A reads bits [11:8] (RegA) except for
		// OUT/MOV, which read the Source field in bits [7:4]; port B
		// always reads bits [7:4]. Loads therefore read two
		// pseudorandomly addressed registers — harmless architecturally
		// and exactly what gives the multiplier its high controllability
		// under the load instruction in the paper's Table 2.
		addrA := uint8(c.ir >> 8 & 0xF)
		if exNext.c.readSrc {
			addrA = uint8(c.ir >> 4 & 0xF)
		}
		addrB := uint8(c.ir >> 4 & 0xF)

		fwd := c.observe(CompForward, 0, uint32(c.wb.data))
		readA := uint32(c.regs[addrA])
		if c.wb.writeEn && c.wb.dest == addrA {
			readA = fwd
		}
		readA = c.observe(CompRegPortA, 0, readA)
		readB := uint32(c.regs[addrB])
		if c.wb.writeEn && c.wb.dest == addrB {
			readB = fwd
		}
		readB = c.observe(CompRegPortB, 0, readB)

		exNext.opA = uint8(readA)
		exNext.opB = uint8(readB)
		exNext.srcVal = uint8(readA)
	}
	// Undecodable words behave as NOP bubbles (the template architecture
	// never forwards unassigned opcodes to the core).

	// ---- Execute stage: MAC datapath (uses c.ex, current accumulators) ----
	ex := &c.ex
	c.signal(SigOpA, uint32(ex.opA))
	c.signal(SigOpB, uint32(ex.opB))
	c.signal(SigShiftAmt, uint32(ex.opA&0xF))
	c.signal(SigImm, uint32(ex.imm))
	c.signal(SigSrcVal, uint32(ex.srcVal))
	prodS := int32(int8(ex.opA)) * int32(int8(ex.opB))
	prod := c.observe(CompMultiplier, 0, uint32(prodS)&Mask18)

	accAVal := c.observe(CompAccA, 0, c.accA)
	accBVal := c.observe(CompAccB, 0, c.accB)
	accSel := accAVal
	if ex.c.accB {
		accSel = accBVal
	}
	c.signal(SigAccSel, accSel)
	shifted := c.observe(CompShifter, int(ex.c.mode), shift18(accSel, ex.c.mode, ex.opA))

	addA := shifted
	if ex.c.zeroAcc {
		addA = 0
	}
	addA = c.observe(CompMuxA, 0, addA)
	addB := prod
	if ex.c.zeroProd {
		addB = 0
	}
	addB = c.observe(CompMuxB, 0, addB)

	var sum uint32
	subMode := 0
	if ex.c.sub {
		sum = (addA - addB) & Mask18
		subMode = 1
	} else {
		sum = (addA + addB) & Mask18
	}
	sum = c.observe(CompAddSub, subMode, sum)

	truncated := sum
	if ex.c.truncEn {
		truncated &^= 0xFF
	}
	truncated = c.observe(CompTruncater, 0, truncated)

	macOut := c.observe(CompLimiter, 0, uint32(limit8(truncated)))

	bufVal := uint32(ex.srcVal)
	if ex.c.isLdi {
		bufVal = uint32(ex.imm)
	}
	bufVal = c.observe(CompBuffer, 0, bufVal)

	var wbNext wbRegs
	wbNext.dest = ex.dest
	wbNext.writeEn = ex.c.writesDest
	if ex.c.macFamily {
		wbNext.data = uint8(macOut)
	} else {
		wbNext.data = uint8(bufVal)
	}
	wbNext.outEn = ex.c.isOut
	wbNext.outVal = uint8(bufVal)

	// Accumulator update (end of execute stage).
	accANext, accBNext := c.accA, c.accB
	if ex.c.macFamily {
		if ex.c.accB {
			accBNext = truncated
		} else {
			accANext = truncated
		}
	}

	// ---- Writeback stage: commit (uses c.wb) ----
	regsNext := c.regs
	if c.wb.writeEn {
		regsNext[c.wb.dest] = c.wb.data
	}
	outNext := c.outPort
	if c.wb.outEn {
		c.signal(SigOutVal, uint32(c.wb.outVal))
		outNext = uint8(c.observe(CompOutPort, 0, uint32(c.wb.outVal)))
	}

	// ---- Clock edge: commit all state simultaneously ----
	c.regs = regsNext
	c.outPort = outNext
	c.accA = accANext & Mask18
	c.accB = accBNext & Mask18
	c.wb = wbNext
	c.ex = exNext
	c.ir = instrWord & (1<<isa.Width - 1)
	c.cycle++
}

// StepInstr is Step on an assembled instruction.
func (c *Core) StepInstr(in isa.Instr) { c.Step(in.Encode()) }

// State is a snapshot of the core's architectural state (registers,
// accumulators, output port). Pipeline registers are not captured: take
// snapshots at drained points, the way an OS context switch would.
type State struct {
	Regs    [isa.NumRegs]uint8
	AccA    uint32
	AccB    uint32
	OutPort uint8
}

// SaveState captures the architectural state (drain the pipeline first).
func (c *Core) SaveState() State {
	return State{Regs: c.regs, AccA: c.accA, AccB: c.accB, OutPort: c.outPort}
}

// RestoreState reloads a snapshot taken with SaveState.
func (c *Core) RestoreState(s State) {
	c.regs = s.Regs
	c.accA = s.AccA & Mask18
	c.accB = s.AccB & Mask18
	c.outPort = s.OutPort
}

// Drain feeds NOPs until the pipeline is empty (three cycles).
func (c *Core) Drain() {
	for i := 0; i < 3; i++ {
		c.Step(0)
	}
}

// PipelineDepth is the number of stages (and the latency, in cycles,
// from feeding an instruction to its writeback).
const PipelineDepth = 4

// EXLatency is the number of cycles after feeding an instruction at
// which it occupies the execute stage (fetch + decode).
const EXLatency = 2
