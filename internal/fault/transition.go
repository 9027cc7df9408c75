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

// SimulateTransitions runs transition-fault simulation: lane 0 is the
// fault-free machine and up to 63 faulty machines share each pass, each
// evolving its own state. Per cycle the frame settles twice: once
// without forcing, to see which faulty machines launch a slow-direction
// edge at their site (relative to the site's previous driven value in
// that lane), and once with those lanes' sites held at the previous
// value. Detected faults drop out at segment boundaries, with per-fault
// flip-flop state and previous-driven bits carried across.
func SimulateTransitions(n *logic.Netlist, vecs VectorSeq, faults []TransitionFault) (*TransitionResult, error) {
	if len(n.Inputs()) > 64 {
		return nil, fmt.Errorf("fault: %d primary inputs exceed the 64 supported", len(n.Inputs()))
	}
	if faults == nil {
		faults = AllTransitionFaults(n)
	}
	const segLen = 1024
	// The two-pass settle injects and clears forcings dynamically, so the
	// cone-sweep kernel does not apply here; the full-sweep CompiledSim
	// runs it.
	w := logic.NewCompiledSim(logic.CompiledFor(n))
	stateWords := w.StateWords()
	inputs := n.Inputs()

	res := &TransitionResult{
		Faults:     faults,
		DetectedAt: make([]int32, len(faults)),
		Cycles:     vecs.Len(),
	}
	for i := range res.DetectedAt {
		res.DetectedAt[i] = -1
	}

	states := make([][]uint64, len(faults))
	for i := range states {
		states[i] = make([]uint64, stateWords)
	}
	prevDriven := make([]bool, len(faults))
	goodState := make([]uint64, stateWords)
	nextGoodState := make([]uint64, stateWords)
	remaining := make([]int, len(faults))
	for i := range remaining {
		remaining[i] = i
	}

	total := vecs.Len()
	first := true
	segVecs := make([]uint64, 0, segLen)
	for start := 0; start < total && len(remaining) > 0; start += segLen {
		end := start + segLen
		if end > total {
			end = total
		}
		// Memoize the segment's vectors once for all batch replays.
		segVecs = segVecs[:0]
		for c := start; c < end; c++ {
			segVecs = append(segVecs, vecs.At(c))
		}
		goodSaved := false
		var survivors []int
		for batchStart := 0; batchStart < len(remaining); batchStart += 63 {
			batch := remaining[batchStart:min(batchStart+63, len(remaining))]
			w.Reset()
			w.SetLaneState(0, goodState)
			for li, fi := range batch {
				w.SetLaneState(uint(li+1), states[fi])
			}
			prev := make([]bool, len(batch)) // per-lane previous driven value at site
			havePrev := !first
			for li, fi := range batch {
				prev[li] = prevDriven[fi]
			}

			var detectedMask uint64
			liveMask := uint64(1)<<uint(len(batch)+1) - 2
			for rc, vec := range segVecs {
				cycle := start + rc
				for bi, in := range inputs {
					w.SetInput(in, vec>>uint(bi)&1 == 1)
				}
				// Pass 1: free-running settle to read each lane's driven
				// site value.
				w.Settle()
				for li, fi := range batch {
					f := faults[fi]
					driven := w.Word(f.Site)>>uint(li+1)&1 == 1
					if havePrev && driven != prev[li] && driven == f.SlowToRise {
						// Slow edge: the net shows the old value this cycle.
						w.Inject(f.Site, prev[li], uint(li+1))
					}
					prev[li] = driven
				}
				havePrev = true
				// Pass 2: settle with the late-edge forcing in place.
				w.ApplyInjectionsToValues()
				w.Settle()
				diff := w.OutputDiff() & liveMask &^ detectedMask
				if diff != 0 {
					for li := range batch {
						if diff>>(uint(li)+1)&1 == 1 {
							res.DetectedAt[batch[li]] = int32(cycle)
						}
					}
					detectedMask |= diff
				}
				w.ClockAfterSettle()
				w.ClearInjections()
			}
			if !goodSaved {
				w.LaneState(0, nextGoodState)
				goodSaved = true
			}
			for li, fi := range batch {
				prevDriven[fi] = prev[li]
				if res.DetectedAt[fi] >= 0 {
					continue
				}
				w.LaneState(uint(li+1), states[fi])
				survivors = append(survivors, fi)
			}
		}
		goodState, nextGoodState = nextGoodState, goodState
		remaining = survivors
		first = false
	}
	return res, nil
}
