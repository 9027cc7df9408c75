package fault

import (
	"fmt"

	"repro/internal/logic"
)

// TransitionFault is a gross-delay (transition) fault: the net is too
// slow to rise or too slow to fall. The simulation model is the standard
// one-cycle-late-edge approximation: whenever the faulty machine's
// driver launches a transition in the slow direction, the net holds its
// previous value for that cycle (the edge arrives a cycle late), and the
// corrupted value propagates normally afterwards — including through
// flip-flops to later cycles. SBST programs run at functional speed, so
// they detect these faults with no extra hardware (at-speed testing).
type TransitionFault struct {
	Site       logic.NetID
	SlowToRise bool
}

// String renders the fault in str/stf convention.
func (f TransitionFault) String() string {
	kind := "stf"
	if f.SlowToRise {
		kind = "str"
	}
	return fmt.Sprintf("net%d/%s", f.Site, kind)
}

// AllTransitionFaults enumerates both transition polarities on every
// live, non-constant net.
func AllTransitionFaults(n *logic.Netlist) []TransitionFault {
	live := n.LiveNets()
	var out []TransitionFault
	for id := 0; id < n.NumNets(); id++ {
		switch n.Gate(logic.NetID(id)).Kind {
		case logic.GateConst0, logic.GateConst1:
			continue
		}
		if !live[id] {
			continue
		}
		out = append(out,
			TransitionFault{Site: logic.NetID(id), SlowToRise: true},
			TransitionFault{Site: logic.NetID(id), SlowToRise: false})
	}
	return out
}

// TransitionResult reports a transition-fault simulation.
type TransitionResult struct {
	Faults []TransitionFault
	// DetectedAt[i] is the cycle of the first output difference, or −1.
	DetectedAt []int32
	Cycles     int
}

// Detected counts detected faults.
func (r *TransitionResult) Detected() int {
	d := 0
	for _, c := range r.DetectedAt {
		if c >= 0 {
			d++
		}
	}
	return d
}

// Coverage returns detected/total.
func (r *TransitionResult) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return float64(r.Detected()) / float64(len(r.Faults))
}

// CoverageAt returns the coverage achieved by the given cycle.
func (r *TransitionResult) CoverageAt(cycle int) float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	d := 0
	for _, c := range r.DetectedAt {
		if c >= 0 && int(c) <= cycle {
			d++
		}
	}
	return float64(d) / float64(len(r.Faults))
}

// SimulateTransitions runs transition-fault simulation on the segment
// driver's logic.CompiledSim replayer (see transitionModel): lane 0 is
// the fault-free machine and up to 63 faulty machines share each pass,
// each evolving its own state, and a segment's passes run on every core.
// Detected faults drop out at segment boundaries, with per-fault
// flip-flop state and previous-driven bits carried across.
func SimulateTransitions(n *logic.Netlist, vecs VectorSeq, faults []TransitionFault) (*TransitionResult, error) {
	if faults == nil {
		faults = AllTransitionFaults(n)
	}
	at, err := simulateModel(n, vecs, transitionModel{faults, make([]bool, len(faults))}, len(faults), 0)
	if err != nil {
		return nil, err
	}
	return &TransitionResult{Faults: faults, DetectedAt: at, Cycles: vecs.Len()}, nil
}

// transitionModel is the one-cycle-late-edge model as a lane
// perturbation. After each free settle it reads every lane's driven site
// value; a lane whose site launches a slow-direction edge (against the
// value it was driven to the cycle before) is held at that previous
// value for the cycle. The hold is removed before the clock edge, so
// flip-flops latch the held frame's D values and a Q site shows its
// latched value next cycle.
type transitionModel struct {
	faults []TransitionFault
	// prev is each fault's site value driven in the last cycle, kept per
	// fault, not per lane: concurrent batches write disjoint faults, and
	// a survivor's lane changes at every repack.
	prev []bool
}

func (transitionModel) load(*logic.CompiledSim, []int) {}

func (m transitionModel) act(w *logic.CompiledSim, batch []int, cycle int) bool {
	pinned := false
	for k, fi := range batch {
		f, lane := m.faults[fi], uint(k+1)
		driven := w.Word(f.Site)>>lane&1 == 1
		if cycle > 0 && driven != m.prev[fi] && driven == f.SlowToRise {
			// Slow edge: the net shows the old value this cycle.
			w.Inject(f.Site, m.prev[fi], lane)
			pinned = true
		}
		m.prev[fi] = driven
	}
	return pinned
}
