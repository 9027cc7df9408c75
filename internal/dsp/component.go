// Package dsp is the cycle-accurate behavioral model of the paper's
// industry-based pipelined DSP core (Figures 4–6): a four-stage RISC
// load/store pipeline around a MAC datapath with an 8×8→18-bit signed
// multiplier, a four-mode arithmetic shifter, an 18-bit adder/subtracter,
// two 18-bit accumulators, a fraction truncater and a saturating limiter,
// fed from a sixteen-entry 8-bit register file with a single forwarding
// (temporary) register resolving read-after-write hazards.
//
// The model exposes a Probe hook on every named datapath component: the
// testability-metrics engine (package metrics) monitors component output
// distributions through it for the controllability metric and overrides
// component outputs with random erroneous values for the observability
// metric, exactly the role the paper's modified-VHDL simulations play.
//
// Pipeline contract: the result of instruction i is visible to
// instruction i+2 (through the forwarding register) and later (through
// the register file). Instruction i+1 reads the pre-i value — a classic
// exposed delay slot the self-test program generator must respect.
package dsp

import "fmt"

// Component identifies a probed datapath component.
type Component uint8

// Datapath components, in the order the paper's Table 2 columns walk the
// MAC datapath of Figure 5 plus the surrounding pipeline of Figure 6.
const (
	// CompMultiplier is the 8×8 signed multiplier (18-bit sign-extended
	// product output).
	CompMultiplier Component = iota
	// CompShifter is the arithmetic shifter (modes: pass, variable,
	// left-1, right-1 — its two control bits give it four metric columns).
	CompShifter
	// CompAddSub is the 18-bit adder/subtracter (two metric columns: add
	// and subtract mode).
	CompAddSub
	// CompMuxA is the adder A-operand mux (shifted accumulator or zero).
	CompMuxA
	// CompMuxB is the adder B-operand mux (product or zero) — the
	// reconvergent-fanout mux the paper's Section 3.2 calls out.
	CompMuxB
	// CompTruncater clears the bits right of the binary point.
	CompTruncater
	// CompAccA is accumulator A (18-bit).
	CompAccA
	// CompAccB is accumulator B (18-bit).
	CompAccB
	// CompLimiter saturates the 18-bit accumulator value to the 8-bit
	// MAC result.
	CompLimiter
	// CompRegPortA is register-file read port A (after forwarding).
	CompRegPortA
	// CompRegPortB is register-file read port B (after forwarding).
	CompRegPortB
	// CompForward is the forwarding (temporary) register output.
	CompForward
	// CompBuffer is the stage-3 buffer feeding loads, moves and OUT.
	CompBuffer
	// CompOutPort is the 8-bit output port register.
	CompOutPort
	numComponents
)

type componentInfo struct {
	name  string
	width int
	modes int // number of control-bit modes (1 = unmoded)
}

var componentTable = [numComponents]componentInfo{
	CompMultiplier: {"Multiplier", 18, 1},
	CompShifter:    {"Shifter", 18, 4},
	CompAddSub:     {"AddSub", 18, 2},
	CompMuxA:       {"MuxA", 18, 1},
	CompMuxB:       {"MuxB", 18, 1},
	CompTruncater:  {"Truncater", 18, 1},
	CompAccA:       {"AccA", 18, 1},
	CompAccB:       {"AccB", 18, 1},
	CompLimiter:    {"Limiter", 8, 1},
	CompRegPortA:   {"RegPortA", 8, 1},
	CompRegPortB:   {"RegPortB", 8, 1},
	CompForward:    {"Forward", 8, 1},
	CompBuffer:     {"Buffer", 8, 1},
	CompOutPort:    {"OutPort", 8, 1},
}

// Components returns every component in a stable order.
func Components() []Component {
	out := make([]Component, 0, int(numComponents))
	for c := Component(0); c < numComponents; c++ {
		out = append(out, c)
	}
	return out
}

// Name returns the component's display name.
func (c Component) Name() string { return componentTable[c].name }

// Width returns the component's output width in bits.
func (c Component) Width() int { return componentTable[c].width }

// Modes returns the number of control-bit modes the component has; a
// metrics table allocates one column per mode.
func (c Component) Modes() int { return componentTable[c].modes }

// String implements fmt.Stringer.
func (c Component) String() string {
	if int(c) < len(componentTable) {
		return componentTable[c].name
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}

// Probe observes (and may override) component outputs during behavioral
// simulation. Observe is called once per active component evaluation per
// cycle; mode is the component's active control-bit mode (0 for unmoded
// components). The returned value replaces the component's output,
// truncated to the component width; return value unchanged to monitor.
type Probe interface {
	Observe(comp Component, mode int, value uint32) uint32
}

// Signal identifies a raw datapath signal that is not itself a component
// output. Together with component outputs, signals give the metrics
// engine every component's *input* ports — the paper computes the
// controllability metric on component inputs.
type Signal uint8

// Datapath signals reported through SignalProbe.
const (
	// SigOpA is the execute-stage A operand (also the shift amount source).
	SigOpA Signal = iota
	// SigOpB is the execute-stage B operand.
	SigOpB
	// SigShiftAmt is the 4-bit signed shift amount (low nibble of opA).
	SigShiftAmt
	// SigAccSel is the selected accumulator value feeding the shifter.
	SigAccSel
	// SigImm is the execute-stage immediate field.
	SigImm
	// SigSrcVal is the execute-stage source-register value.
	SigSrcVal
	// SigOutVal is the writeback-stage output-port value.
	SigOutVal
	numSignals
)

var signalInfo = [numSignals]struct {
	name  string
	width int
}{
	SigOpA:      {"opA", 8},
	SigOpB:      {"opB", 8},
	SigShiftAmt: {"shiftAmt", 4},
	SigAccSel:   {"accSel", 18},
	SigImm:      {"imm", 8},
	SigSrcVal:   {"srcVal", 8},
	SigOutVal:   {"outVal", 8},
}

// Width returns the signal's width in bits.
func (s Signal) Width() int { return signalInfo[s].width }

// String implements fmt.Stringer.
func (s Signal) String() string { return signalInfo[s].name }

// SignalProbe is an optional extension of Probe: when the installed
// probe implements it, the core additionally reports raw datapath
// signals (monitoring only — signals cannot be overridden).
type SignalProbe interface {
	Signal(sig Signal, value uint32)
}
