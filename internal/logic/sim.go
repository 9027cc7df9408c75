package logic

import "fmt"

// Simulator evaluates a Netlist one clock cycle at a time with scalar
// (single-machine) two-valued logic. It is the reference evaluator the
// word-parallel fault simulator is validated against.
type Simulator struct {
	n    *Netlist
	vals []bool // current value of every net
	next []bool // pending DFF next-state (indexed by position in n.dffs)

	// Single-fault injection (scalar reference for the fault simulator).
	faultNet NetID
	faultSA1 bool
}

// NewSimulator returns a Simulator with all state initialized to 0.
func NewSimulator(n *Netlist) *Simulator {
	s := &Simulator{
		n:        n,
		vals:     make([]bool, n.NumNets()),
		next:     make([]bool, len(n.dffs)),
		faultNet: InvalidNet,
	}
	s.Reset()
	return s
}

// InjectFault forces net id permanently stuck at the given value until
// ClearFault. Only one fault is supported (single stuck-at model).
func (s *Simulator) InjectFault(id NetID, sa1 bool) {
	s.faultNet = id
	s.faultSA1 = sa1
}

// ClearFault removes the injected fault.
func (s *Simulator) ClearFault() { s.faultNet = InvalidNet }

func (s *Simulator) applyFault(id NetID) {
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
	for i := range s.n.gates {
		if s.n.gates[i].Kind == GateConst1 {
			s.vals[i] = true
		}
	}
}

// SetInput drives a primary input for the next Step.
func (s *Simulator) SetInput(id NetID, v bool) {
	if s.n.gates[id].Kind != GateInput {
		panic(fmt.Sprintf("logic: SetInput on non-input net %d (%s)", id, s.n.NameOf(id)))
	}
	s.vals[id] = v
	s.applyFault(id)
}

// SetInputBus drives a bus of primary inputs from the low bits of v.
func (s *Simulator) SetInputBus(bus Bus, v uint64) {
	for i, id := range bus {
		s.SetInput(id, v>>uint(i)&1 == 1)
	}
}

// Value returns the settled value of any net after the last Step (or the
// driven value for inputs before a Step).
func (s *Simulator) Value(id NetID) bool { return s.vals[id] }

// BusValue packs a bus into a uint64, bit i from bus[i].
func (s *Simulator) BusValue(bus Bus) uint64 {
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
	for i, q := range s.n.dffs {
		s.next[i] = s.vals[s.n.gates[q].In[0]]
	}
	for i, q := range s.n.dffs {
		s.vals[q] = s.next[i]
		s.applyFault(q)
	}
}

// Settle evaluates the combinational frame without clocking state. Use
// it to observe outputs as a pure function of inputs and current state.
func (s *Simulator) Settle() {
	// Constants are set at Reset; inputs via SetInput; DFF Q values carry.
	// A fault sited on a DFF Q or input net must hold before evaluation.
	if s.faultNet != InvalidNet {
		s.applyFault(s.faultNet)
	}
	for _, id := range s.n.order {
		g := &s.n.gates[id]
		s.vals[id] = evalScalar(g, s.vals)
		s.applyFault(id)
	}
}

func evalScalar(g *Gate, vals []bool) bool {
	switch g.Kind {
	case GateBuf:
		return vals[g.In[0]]
	case GateNot:
		return !vals[g.In[0]]
	case GateAnd:
		for _, in := range g.In {
			if !vals[in] {
				return false
			}
		}
		return true
	case GateOr:
		for _, in := range g.In {
			if vals[in] {
				return true
			}
		}
		return false
	case GateNand:
		for _, in := range g.In {
			if !vals[in] {
				return true
			}
		}
		return false
	case GateNor:
		for _, in := range g.In {
			if vals[in] {
				return false
			}
		}
		return true
	case GateXor:
		v := false
		for _, in := range g.In {
			v = v != vals[in]
		}
		return v
	case GateXnor:
		v := true
		for _, in := range g.In {
			v = v != vals[in]
		}
		return v
	case GateMux2:
		if vals[g.In[0]] {
			return vals[g.In[2]]
		}
		return vals[g.In[1]]
	default:
		panic(fmt.Sprintf("logic: evalScalar on %s", g.Kind))
	}
}

// StateSnapshot captures all DFF values for later restore.
func (s *Simulator) StateSnapshot() []bool {
	snap := make([]bool, len(s.n.dffs))
	for i, q := range s.n.dffs {
		snap[i] = s.vals[q]
	}
	return snap
}

// RestoreState loads a snapshot captured by StateSnapshot.
func (s *Simulator) RestoreState(snap []bool) {
	if len(snap) != len(s.n.dffs) {
		panic("logic: RestoreState snapshot size mismatch")
	}
	for i, q := range s.n.dffs {
		s.vals[q] = snap[i]
	}
}
