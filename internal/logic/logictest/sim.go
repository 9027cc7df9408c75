package logictest

import (
	"fmt"

	"repro/internal/logic"
)

// Simulator evaluates a Netlist one clock cycle at a time with scalar
// (single-machine) two-valued logic, one bool per net, walking the
// netlist through its exported accessors. It shares no code with
// logic.Compile, which makes it the independent oracle the compiled
// simulators, the fault kernel and the single-machine consumers built on
// them are tested against.
type Simulator struct {
	n     *logic.Netlist
	gates []logic.Gate
	vals  []bool // current value of every net
	next  []bool // pending DFF next-state, by position in n.DFFs()

	// Single-fault injection (one stuck-at fault at a time).
	faultNet logic.NetID
	faultSA1 bool
}

// NewSimulator returns a Simulator with all state initialized to 0.
func NewSimulator(n *logic.Netlist) *Simulator {
	s := &Simulator{
		n:        n,
		gates:    make([]logic.Gate, n.NumNets()),
		vals:     make([]bool, n.NumNets()),
		next:     make([]bool, len(n.DFFs())),
		faultNet: logic.InvalidNet,
	}
	for id := range s.gates {
		s.gates[id] = n.Gate(logic.NetID(id))
	}
	s.Reset()
	return s
}

// InjectFault forces net id permanently stuck at the given value until
// ClearFault. Only one fault is supported (single stuck-at model).
func (s *Simulator) InjectFault(id logic.NetID, sa1 bool) {
	s.faultNet = id
	s.faultSA1 = sa1
}

// ClearFault removes the injected fault.
func (s *Simulator) ClearFault() { s.faultNet = logic.InvalidNet }

func (s *Simulator) applyFault(id logic.NetID) {
	if id == s.faultNet {
		s.vals[id] = s.faultSA1
	}
}

// Reset clears all nets and flip-flop state to 0.
func (s *Simulator) Reset() {
	for i := range s.vals {
		s.vals[i] = false
	}
	for i := range s.next {
		s.next[i] = false
	}
	// Constants must survive reset.
	for i := range s.gates {
		if s.gates[i].Kind == logic.GateConst1 {
			s.vals[i] = true
		}
	}
}

// SetInput drives a primary input for the next Step.
func (s *Simulator) SetInput(id logic.NetID, v bool) {
	if s.gates[id].Kind != logic.GateInput {
		panic(fmt.Sprintf("logictest: SetInput on non-input net %d (%s)", id, s.n.NameOf(id)))
	}
	s.vals[id] = v
	s.applyFault(id)
}

// SetInputBus drives a bus of primary inputs from the low bits of v.
func (s *Simulator) SetInputBus(bus logic.Bus, v uint64) {
	for i, id := range bus {
		s.SetInput(id, v>>uint(i)&1 == 1)
	}
}

// Value returns the settled value of any net after the last Step (or the
// driven value for inputs before a Step).
func (s *Simulator) Value(id logic.NetID) bool { return s.vals[id] }

// BusValue packs a bus into a uint64, bit i from bus[i].
func (s *Simulator) BusValue(bus logic.Bus) uint64 {
	var v uint64
	for i, id := range bus {
		if s.vals[id] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Step settles the combinational frame for the currently driven inputs,
// then clocks every DFF. Primary outputs and all internal nets reflect
// pre-edge values after Step returns.
func (s *Simulator) Step() {
	s.Settle()
	s.ClockAfterSettle()
}

// ClockAfterSettle clocks every DFF using the already-settled frame
// (the strobe-between-settle-and-edge pattern the fault simulator uses).
func (s *Simulator) ClockAfterSettle() {
	dffs := s.n.DFFs()
	for i, q := range dffs {
		s.next[i] = s.vals[s.gates[q].In[0]]
	}
	for i, q := range dffs {
		s.vals[q] = s.next[i]
		s.applyFault(q)
	}
}

// Settle evaluates the combinational frame without clocking state. Use
// it to observe outputs as a pure function of inputs and current state.
func (s *Simulator) Settle() {
	// Constants are set at Reset; inputs via SetInput; DFF Q values carry.
	// A fault sited on a DFF Q or input net must hold before evaluation.
	if s.faultNet != logic.InvalidNet {
		s.applyFault(s.faultNet)
	}
	for _, id := range s.n.CombOrder() {
		s.vals[id] = evalScalar(&s.gates[id], s.vals)
		s.applyFault(id)
	}
}

func evalScalar(g *logic.Gate, vals []bool) bool {
	switch g.Kind {
	case logic.GateBuf:
		return vals[g.In[0]]
	case logic.GateNot:
		return !vals[g.In[0]]
	case logic.GateAnd:
		for _, in := range g.In {
			if !vals[in] {
				return false
			}
		}
		return true
	case logic.GateOr:
		for _, in := range g.In {
			if vals[in] {
				return true
			}
		}
		return false
	case logic.GateNand:
		for _, in := range g.In {
			if !vals[in] {
				return true
			}
		}
		return false
	case logic.GateNor:
		for _, in := range g.In {
			if vals[in] {
				return false
			}
		}
		return true
	case logic.GateXor:
		v := false
		for _, in := range g.In {
			v = v != vals[in]
		}
		return v
	case logic.GateXnor:
		v := true
		for _, in := range g.In {
			v = v != vals[in]
		}
		return v
	case logic.GateMux2:
		if vals[g.In[0]] {
			return vals[g.In[2]]
		}
		return vals[g.In[1]]
	default:
		panic(fmt.Sprintf("logictest: evalScalar on %s", g.Kind))
	}
}
