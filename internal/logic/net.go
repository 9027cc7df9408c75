// Package logic provides a technology-independent gate-level netlist
// representation with 64-lane word-parallel simulation. Its tests hold
// the simulators to the scalar oracle in package logictest.
//
// The netlist is the substrate every gate-level experiment in this
// repository runs on: structural "synthesis" generators (package synth)
// emit logic gates through a Builder, the stuck-at fault simulator
// (package fault) replays vectors on the levelized result, and ATPG
// (package atpg) searches it with a five-valued calculus.
//
// A Netlist is sequential: DFF gates hold one bit of state each and the
// remaining gates form a combinational frame that is levelized once at
// build time. One simulated cycle applies primary inputs, settles the
// combinational frame, samples primary outputs and then clocks every DFF.
package logic

import (
	"fmt"
	"sync/atomic"
)

// NetID identifies a single-bit net within one Netlist. IDs are dense,
// starting at 0, in creation order (which is also a valid topological
// order for combinational nets after levelization).
type NetID int32

// InvalidNet is returned by lookups that fail.
const InvalidNet NetID = -1

// GateKind enumerates the primitive cell library. The library is kept
// deliberately small: every arithmetic block in package synth maps onto
// these primitives so the stuck-at fault universe is uniform.
type GateKind uint8

// Primitive gate kinds.
const (
	// GateConst0 and GateConst1 drive constant values and have no inputs.
	GateConst0 GateKind = iota
	GateConst1
	// GateInput marks a primary input; it has no inputs and its output is
	// set by the simulator each cycle.
	GateInput
	GateBuf
	GateNot
	GateAnd
	GateOr
	GateNand
	GateNor
	GateXor
	GateXnor
	// GateMux2 selects In[1] when In[0] is 0 and In[2] when In[0] is 1.
	GateMux2
	// GateDFF is a rising-edge D flip-flop: In[0] is D, the output net is Q.
	// State is updated at the end of each simulation Step.
	GateDFF
)

var gateKindNames = [...]string{
	GateConst0: "CONST0",
	GateConst1: "CONST1",
	GateInput:  "INPUT",
	GateBuf:    "BUF",
	GateNot:    "NOT",
	GateAnd:    "AND",
	GateOr:     "OR",
	GateNand:   "NAND",
	GateNor:    "NOR",
	GateXor:    "XOR",
	GateXnor:   "XNOR",
	GateMux2:   "MUX2",
	GateDFF:    "DFF",
}

// String returns the conventional cell name for the gate kind.
func (k GateKind) String() string {
	if int(k) < len(gateKindNames) {
		return gateKindNames[k]
	}
	return fmt.Sprintf("GateKind(%d)", uint8(k))
}

// arity reports the number of inputs the kind requires, or -1 for
// variadic kinds (And/Or/Nand/Nor/Xor/Xnor accept 2+ inputs).
func (k GateKind) arity() int {
	switch k {
	case GateConst0, GateConst1, GateInput:
		return 0
	case GateBuf, GateNot, GateDFF:
		return 1
	case GateMux2:
		return 3
	default:
		return -1
	}
}

// Gate is one primitive cell instance. Every gate drives exactly one net
// (Out); multi-output structures are expressed as multiple gates.
type Gate struct {
	Kind GateKind
	In   []NetID
	Out  NetID
}

// Netlist is an immutable, levelized gate-level circuit produced by
// Builder.Build. All exported slices must be treated as read-only.
type Netlist struct {
	gates []Gate // indexed by NetID of the driven net
	names []string

	inputs  []NetID // primary inputs in declaration order
	outputs []NetID // primary outputs in declaration order
	dffs    []NetID // Q nets of all flip-flops in declaration order

	// order holds non-input, non-DFF, non-const gate output nets in
	// topological order of the combinational frame, level by level. DFF
	// Q nets and primary inputs act as frame sources.
	order []NetID

	// level[n] is net n's topological level and rank[n] its position in
	// order (-1 for a frame source); see Level and CombRank.
	level []int32
	rank  []int32

	// fanout[n] lists the nets whose driving gates read net n.
	fanout [][]NetID

	byName map[string]NetID

	// regions maps a hierarchical scope name to the nets created inside
	// that scope, supporting per-component fault accounting.
	regions map[string][]NetID
	// regionOrder preserves scope creation order for deterministic output.
	regionOrder []string

	// compiled is the netlist's evaluation program, set once by
	// CompiledFor.
	compiled atomic.Pointer[Compiled]
}

// NumNets returns the total number of nets (one per gate).
func (n *Netlist) NumNets() int { return len(n.gates) }

// SizeBytes estimates the netlist's resident size — the gate table
// with its fan-in lists, the fanout lists, and the fixed-width net
// slices and per-net tables — for cache budgeting (the engine's design
// cache evicts by bytes, like the artifact store). Names and region maps are ignored:
// they are a small fraction and an estimate is all budgeting needs.
func (n *Netlist) SizeBytes() int64 {
	s := int64(len(n.gates))*32 + int64(len(n.names))*16
	for i := range n.gates {
		s += int64(len(n.gates[i].In)) * 4
	}
	for _, fo := range n.fanout {
		s += 24 + int64(len(fo))*4
	}
	s += int64(len(n.inputs)+len(n.outputs)+len(n.dffs)+len(n.order)+len(n.level)+len(n.rank)) * 4
	return s
}

// NumGates returns the number of logic gates, excluding primary inputs
// and constants (DFFs are counted).
func (n *Netlist) NumGates() int {
	c := 0
	for i := range n.gates {
		switch n.gates[i].Kind {
		case GateInput, GateConst0, GateConst1:
		default:
			c++
		}
	}
	return c
}

// Gate returns the gate driving net id.
func (n *Netlist) Gate(id NetID) Gate { return n.gates[id] }

// NameOf returns the name of net id ("" if unnamed).
func (n *Netlist) NameOf(id NetID) string { return n.names[id] }

// Lookup resolves a net by name, returning InvalidNet if absent.
func (n *Netlist) Lookup(name string) NetID {
	if id, ok := n.byName[name]; ok {
		return id
	}
	return InvalidNet
}

// Inputs returns the primary input nets in declaration order.
func (n *Netlist) Inputs() []NetID { return n.inputs }

// Outputs returns the primary output nets in declaration order.
func (n *Netlist) Outputs() []NetID { return n.outputs }

// DFFs returns the Q nets of all flip-flops in declaration order.
func (n *Netlist) DFFs() []NetID { return n.dffs }

// CombOrder returns the combinational frame in topological order,
// level by level: Level never decreases along it.
func (n *Netlist) CombOrder() []NetID { return n.order }

// CombRank returns net id's position in CombOrder, or -1 for a frame
// source (primary input, constant or DFF Q net).
func (n *Netlist) CombRank(id NetID) int { return int(n.rank[id]) }

// Level returns net id's topological level: 0 for a frame source, and
// one more than the deepest input for a gate of the combinational
// frame, so a gate's level exceeds that of every net it reads.
func (n *Netlist) Level(id NetID) int { return int(n.level[id]) }

// Fanout returns the nets driven by gates that read net id.
func (n *Netlist) Fanout(id NetID) []NetID { return n.fanout[id] }

// Regions returns the hierarchical scope names in creation order.
func (n *Netlist) Regions() []string { return n.regionOrder }

// RegionNets returns the nets created inside the named scope (including
// nested scopes), or nil if the scope does not exist.
func (n *Netlist) RegionNets(name string) []NetID { return n.regions[name] }

// Stats summarises the netlist for reports.
type Stats struct {
	Nets    int
	Gates   int
	Inputs  int
	Outputs int
	DFFs    int
	Levels  int
}

// Stats computes summary statistics.
func (n *Netlist) Stats() Stats {
	maxLevel := int32(0)
	for _, lv := range n.level {
		maxLevel = max(maxLevel, lv)
	}
	return Stats{
		Nets:    len(n.gates),
		Gates:   n.NumGates(),
		Inputs:  len(n.inputs),
		Outputs: len(n.outputs),
		DFFs:    len(n.dffs),
		Levels:  int(maxLevel),
	}
}
