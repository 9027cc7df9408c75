package logic

import "fmt"

// CompiledSim evaluates a Netlist with 64 independent machines in
// parallel, one per bit lane of a uint64 word, by running the full
// Compiled program every settle. All lanes share the primary input
// values; they diverge only through per-net injection masks: lane 0 is
// the fault-free machine and lanes 1..63 each carry one fault. Value
// storage includes the temporary slots the compiler introduced for
// decomposed variadic gates.
//
// It is the full-sweep simulator behind fault.KernelReference, the
// fault models whose forcing changes cycle by cycle (transition and
// bridging faults), and every consumer of one machine's response:
// expected outputs, fault traces, MISR signatures, path delay and VCD
// dumps. The tests in this package hold it to logictest.Simulator.
type CompiledSim struct {
	c    *Compiled
	vals []uint64 // len c.slots; indices >= c.numNets are temporaries
	next []uint64

	// Injection masks, sized to slots so the inner loop masks every
	// destination uniformly; temporary slots keep zero masks forever.
	sa0 []uint64
	sa1 []uint64

	injected []NetID
}

// NewCompiledSim returns a CompiledSim with all lanes reset to state 0.
func NewCompiledSim(c *Compiled) *CompiledSim {
	s := &CompiledSim{
		c:    c,
		vals: make([]uint64, c.slots),
		next: make([]uint64, len(c.n.dffs)),
		sa0:  make([]uint64, c.slots),
		sa1:  make([]uint64, c.slots),
	}
	s.Reset()
	return s
}

// Reset clears every lane's nets and flip-flops to 0 and removes all
// injections.
func (s *CompiledSim) Reset() {
	for i := range s.vals {
		s.vals[i] = 0
	}
	for i := range s.next {
		s.next[i] = 0
	}
	for i := range s.c.n.gates {
		if s.c.n.gates[i].Kind == GateConst1 {
			s.vals[i] = ^uint64(0)
		}
	}
	s.ClearInjections()
}

// Inject forces net id stuck-at value in lane (1..63). Lane 0 is
// reserved for the fault-free machine.
func (s *CompiledSim) Inject(id NetID, stuckAt1 bool, lane uint) {
	if lane == 0 || lane > 63 {
		panic(fmt.Sprintf("logic: Inject lane %d out of range 1..63", lane))
	}
	if s.sa0[id] == 0 && s.sa1[id] == 0 {
		s.injected = append(s.injected, id)
	}
	if stuckAt1 {
		s.sa1[id] |= 1 << lane
	} else {
		s.sa0[id] |= 1 << lane
	}
}

// ApplyInjectionsToValues re-forces every injected net's current value
// word. Call after loading lane state with SetLaneState so a fault sited
// on a DFF Q net holds from the very first settle of a segment.
func (s *CompiledSim) ApplyInjectionsToValues() {
	for _, id := range s.injected {
		s.vals[id] = (s.vals[id] &^ s.sa0[id]) | s.sa1[id]
	}
}

// ClearInjections removes all fault injections (lanes keep their
// diverged state until Reset).
func (s *CompiledSim) ClearInjections() {
	for _, id := range s.injected {
		s.sa0[id] = 0
		s.sa1[id] = 0
	}
	s.injected = s.injected[:0]
}

// SetInput drives a primary input identically across all lanes.
func (s *CompiledSim) SetInput(id NetID, v bool) {
	if s.c.n.gates[id].Kind != GateInput {
		panic(fmt.Sprintf("logic: SetInput on non-input net %d", id))
	}
	if v {
		s.vals[id] = ^uint64(0)
	} else {
		s.vals[id] = 0
	}
	s.vals[id] = (s.vals[id] &^ s.sa0[id]) | s.sa1[id]
}

// Word returns the 64-lane value word of net id after the last Settle.
func (s *CompiledSim) Word(id NetID) uint64 { return s.vals[id] }

// ClockAfterSettle clocks all DFFs using the already-settled frame, so
// outputs can be sampled between Settle and the clock edge (the fault
// simulator's strobe point). Q nets take their injections.
func (s *CompiledSim) ClockAfterSettle() {
	n := s.c.n
	for i, q := range n.dffs {
		s.next[i] = s.vals[n.gates[q].In[0]]
	}
	for i, q := range n.dffs {
		s.vals[q] = (s.next[i] &^ s.sa0[q]) | s.sa1[q]
	}
}

// Settle evaluates the combinational frame by executing the full
// compiled program in topological order. With no injections installed
// every mask is zero, so the fault-free settle takes the mask-free
// path.
func (s *CompiledSim) Settle() {
	c := s.c
	if len(s.injected) == 0 {
		runProgram(c.code, c.dst, c.a0, c.a1, c.a2, s.vals, 0, int32(len(c.code)))
	} else {
		evalInto(c, 0, int32(len(c.code)), s.vals, s.sa0, s.sa1)
	}
}

// OutputDiff returns, for each primary output, a mask of lanes whose
// value differs from lane 0 (the good machine), OR-ed together.
func (s *CompiledSim) OutputDiff() uint64 {
	var diff uint64
	for _, id := range s.c.n.outputs {
		v := s.vals[id]
		var ref uint64
		if v&1 == 1 {
			ref = ^uint64(0)
		}
		diff |= v ^ ref
	}
	return diff &^ 1
}

// LaneState extracts one lane's DFF state as a packed bitset, one bit
// per DFF in Netlist.DFFs order.
func (s *CompiledSim) LaneState(lane uint, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, q := range s.c.n.dffs {
		if s.vals[q]>>lane&1 == 1 {
			dst[i/64] |= 1 << uint(i%64)
		}
	}
}

// SetLaneState loads one lane's DFF state from a packed bitset.
func (s *CompiledSim) SetLaneState(lane uint, src []uint64) {
	bit := uint64(1) << lane
	for i, q := range s.c.n.dffs {
		if src[i/64]>>(uint(i)%64)&1 == 1 {
			s.vals[q] |= bit
		} else {
			s.vals[q] &^= bit
		}
	}
}

// StateWords returns the number of uint64 words needed by LaneState.
func (s *CompiledSim) StateWords() int { return (len(s.c.n.dffs) + 63) / 64 }
