package fault

import (
	"repro/internal/logic"
)

// ObservedTrace is a failing machine's primary-output record: one packed
// output word per cycle (bit i = Netlist.Outputs()[i]), strobed after
// settling and before the clock edge — the same strobe the simulator and
// testers use.
type ObservedTrace []uint64

// ExpectedOutputs simulates the fault-free machine and returns its
// output trace: the tester's expected-response store, and the expected
// values logic.WriteTestbench asserts.
func ExpectedOutputs(n *logic.Netlist, vecs VectorSeq) ObservedTrace {
	return laneTrace(n, vecs, nil)
}

// FaultTrace simulates one faulty machine's output trace.
func FaultTrace(n *logic.Netlist, vecs VectorSeq, f Fault) ObservedTrace {
	return laneTrace(n, vecs, []Fault{f})
}

// laneTrace runs runLanes with at most one fault and packs that
// machine's outputs: lane 0 without a fault, lane 1 with one.
func laneTrace(n *logic.Netlist, vecs VectorSeq, faults []Fault) ObservedTrace {
	lane := uint(len(faults))
	outputs := n.Outputs()
	trace := make(ObservedTrace, vecs.Len())
	runLanes(n, vecs, faults, func(cyc int, s *logic.CompiledSim) bool {
		for b, out := range outputs {
			trace[cyc] |= (s.Word(out) >> lane & 1) << uint(b)
		}
		return true
	})
	return trace
}

// runLanes simulates vecs from the reset state on one CompiledSim (see
// stepLanes): the fault-free machine in lane 0 and faults[i] in lane
// i+1, at most 63 of them. frame sees every settled frame before its
// clock edge and ends the run by returning false.
func runLanes(n *logic.Netlist, vecs VectorSeq, faults []Fault, frame func(cyc int, s *logic.CompiledSim) bool) {
	s := logic.NewCompiledSim(logic.CompiledFor(n))
	for i, f := range faults {
		s.Inject(f.Site, f.SA1, uint(i+1))
	}
	s.ApplyInjectionsToValues()
	stepLanes(s, n.Inputs(), vecs, func(cyc int) bool { return frame(cyc, s) })
}

// Candidate is one diagnosis hypothesis.
type Candidate struct {
	Fault Fault
	// ExactMatch reports whether the fault's simulated trace equals the
	// observed trace cycle for cycle.
	ExactMatch bool
	// MatchedFailures and MissedFailures count observed failing cycles
	// the hypothesis explains / fails to explain; Mispredicts counts
	// cycles the hypothesis fails but the observation passed.
	MatchedFailures, MissedFailures, Mispredicts int
}

// Score orders candidates: exact matches first, then by explained minus
// contradicted failures.
func (c Candidate) Score() int {
	s := c.MatchedFailures - c.MissedFailures - 2*c.Mispredicts
	if c.ExactMatch {
		s += 1 << 20
	}
	return s
}

// DiagnoseOptions tune Diagnose.
type DiagnoseOptions struct {
	// Presim, when non-nil, supplies the stage-1 first-detection result
	// for the candidate list, so Diagnose skips its own Simulate call.
	// That call already spends every core; a result from engine.Simulate
	// adds the call supervisor's retry, quarantine of a diverging
	// kernel, and the caller's trace sink. Its Faults slice replaces the
	// candidate list.
	Presim *Result
}

// Diagnose performs cause-effect single-stuck-at diagnosis: it simulates
// every candidate fault against the test and ranks candidates by how
// well their response matches the observed failing trace. This is the
// classical fault-dictionary flow a production test setup runs when a
// self-test signature mismatches and per-cycle data is available.
//
// The first stage uses the bit-parallel simulator to discard candidates
// whose first-failure cycle disagrees with the observation; survivors
// are trace-matched exactly.
func Diagnose(n *logic.Netlist, vecs VectorSeq, observed ObservedTrace,
	candidates []Fault) ([]Candidate, error) {
	return DiagnoseOpts(n, vecs, observed, candidates, DiagnoseOptions{})
}

// DiagnoseOpts is Diagnose with the full option set.
func DiagnoseOpts(n *logic.Netlist, vecs VectorSeq, observed ObservedTrace,
	candidates []Fault, opts DiagnoseOptions) ([]Candidate, error) {

	good := ExpectedOutputs(n, vecs)
	firstFail := -1
	for cyc := range observed {
		if observed[cyc] != good[cyc] {
			firstFail = cyc
			break
		}
	}
	if firstFail < 0 {
		return nil, nil // machine passed: nothing to diagnose
	}

	// Stage 1: parallel simulation gives each candidate's first
	// detection cycle; a single-fault hypothesis must first fail exactly
	// where the observation first fails.
	res := opts.Presim
	if res == nil {
		if candidates == nil {
			candidates, _ = Collapse(n, AllFaults(n))
		}
		var err error
		res, err = Simulate(n, vecs, SimOptions{Faults: candidates})
		if err != nil {
			return nil, err
		}
	}
	var survivors []Fault
	for i, f := range res.Faults {
		if int(res.DetectedAt[i]) == firstFail {
			survivors = append(survivors, f)
		}
	}
	// Stage 2: bit-parallel trace matching of the survivors (a popular
	// first-failure cycle — e.g. the loop's first OUT — can leave
	// hundreds of them).
	out := traceMatchBatched(n, vecs, good, observed, survivors)
	// Rank best-first (insertion sort: candidate lists are short).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Score() < out[j].Score(); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out, nil
}

// traceMatchBatched scores up to 63 candidate faults per word-parallel
// run against the observed trace.
func traceMatchBatched(n *logic.Netlist, vecs VectorSeq, good, observed ObservedTrace,
	cands []Fault) []Candidate {

	outputs := n.Outputs()
	var out []Candidate
	for start := 0; start < len(cands); start += 63 {
		batch := cands[start:min(start+63, len(cands))]
		scores := make([]Candidate, len(batch))
		for i := range scores {
			scores[i] = Candidate{Fault: batch[i], ExactMatch: true}
		}
		liveMask := uint64(1)<<uint(len(batch)+1) - 2
		runLanes(n, vecs, batch, func(cyc int, w *logic.CompiledSim) bool {
			var diffGood, diffObs uint64
			for b, o := range outputs {
				word := w.Word(o)
				goodRef := uint64(0)
				if good[cyc]>>uint(b)&1 == 1 {
					goodRef = ^uint64(0)
				}
				obsRef := uint64(0)
				if observed[cyc]>>uint(b)&1 == 1 {
					obsRef = ^uint64(0)
				}
				diffGood |= word ^ goodRef
				diffObs |= word ^ obsRef
			}
			diffGood &= liveMask
			diffObs &= liveMask
			obsFail := observed[cyc] != good[cyc]
			if diffGood != 0 || diffObs != 0 || obsFail {
				for li := range batch {
					bit := uint(li + 1)
					simFail := diffGood>>bit&1 == 1
					if diffObs>>bit&1 == 1 {
						scores[li].ExactMatch = false
					}
					switch {
					case obsFail && simFail:
						scores[li].MatchedFailures++
					case obsFail && !simFail:
						scores[li].MissedFailures++
					case !obsFail && simFail:
						scores[li].Mispredicts++
					}
				}
			}
			return true
		})
		out = append(out, scores...)
	}
	return out
}
