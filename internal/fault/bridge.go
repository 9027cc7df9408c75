package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/logic"
)

// BridgeKind selects the resolution function of a two-net bridging
// fault.
type BridgeKind uint8

// Bridging fault kinds.
const (
	// BridgeAND: both nets read the AND of their driven values
	// (dominant-low short).
	BridgeAND BridgeKind = iota
	// BridgeOR: both nets read the OR (dominant-high short).
	BridgeOR
	// BridgeADominates: net B reads net A's value (A drives the short).
	BridgeADominates
)

// String names the kind.
func (k BridgeKind) String() string {
	switch k {
	case BridgeAND:
		return "AND"
	case BridgeOR:
		return "OR"
	}
	return "A-dom"
}

// Bridge is a two-net bridging fault.
type Bridge struct {
	A, B logic.NetID
	Kind BridgeKind
}

// String renders the bridge.
func (br Bridge) String() string {
	return fmt.Sprintf("bridge(%d,%d)/%s", br.A, br.B, br.Kind)
}

// RandomBridges samples candidate bridging faults between distinct
// live nets — the usual layout-less approximation when no extraction
// data exists. The sampler avoids pairing a net with one in its own
// combinational fanin cone (such bridges create feedback, which this
// zero-delay model cannot resolve).
func RandomBridges(n *logic.Netlist, count int, seed int64) []Bridge {
	live := n.LiveNets()
	var nets []logic.NetID
	for id := 0; id < n.NumNets(); id++ {
		switch n.Gate(logic.NetID(id)).Kind {
		case logic.GateConst0, logic.GateConst1, logic.GateInput:
			continue
		}
		if live[id] {
			nets = append(nets, logic.NetID(id))
		}
	}
	if len(nets) < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []Bridge
	for tries := 0; len(out) < count && tries < 50*count; tries++ {
		a := nets[rng.Intn(len(nets))]
		b := nets[rng.Intn(len(nets))]
		// A bridge between equal-level nets can never be in each
		// other's cone.
		if a == b || n.Level(a) != n.Level(b) {
			continue
		}
		out = append(out, Bridge{A: a, B: b, Kind: BridgeKind(rng.Intn(3))})
	}
	return out
}

// SimulateBridges fault-simulates the bridges bit-parallel on the
// segment driver's logic.CompiledSim replayer (see bridgeModel) and
// returns, per bridge, the first cycle with an output difference, or -1.
// Lane 0 of a logic.CompiledSim is the fault-free machine and lanes
// 1..63 each carry one bridge, every machine starting from the all-zero
// flip-flop state.
func SimulateBridges(n *logic.Netlist, vecs VectorSeq, bridges []Bridge) ([]int32, error) {
	return simulateModel(n, vecs, bridgeModel(bridges), len(bridges), 0)
}

// bridgeModel evaluates bridges zero-delay as a lane perturbation: after
// each free settle, every lane whose two nets disagree has both pinned
// to the resolved value, and the frame settles once more, which reaches
// the fixed point for same-level bridges. Flip-flops latch D with the
// pinning removed, so a bridged Q net resolves anew every cycle.
type bridgeModel []Bridge

func (bridgeModel) load(*logic.CompiledSim, []int) {}

func (m bridgeModel) act(w *logic.CompiledSim, batch []int, _ int) bool {
	pinned := false
	for k, bi := range batch {
		br, lane := m[bi], uint(k+1)
		a := w.Word(br.A)>>lane&1 == 1
		if a == (w.Word(br.B)>>lane&1 == 1) {
			continue // equal values: the short changes nothing
		}
		r := a // BridgeADominates
		switch br.Kind {
		case BridgeAND:
			r = false
		case BridgeOR:
			r = true
		}
		w.Inject(br.A, r, lane)
		w.Inject(br.B, r, lane)
		pinned = true
	}
	return pinned
}
