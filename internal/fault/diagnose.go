package fault

import (
	"repro/internal/logic"
)

// ObservedTrace is a failing machine's primary-output record: one packed
// output word per cycle (bit i = Netlist.Outputs()[i]), strobed after
// settling and before the clock edge — the same strobe the simulator and
// testers use.
type ObservedTrace []uint64

// GoodTrace simulates the fault-free machine and returns its output
// trace (the tester's expected-response store).
func GoodTrace(n *logic.Netlist, vecs VectorSeq) ObservedTrace {
	s := logic.NewSimulator(n)
	inputs := n.Inputs()
	outputs := n.Outputs()
	trace := make(ObservedTrace, vecs.Len())
	for cyc := 0; cyc < vecs.Len(); cyc++ {
		v := vecs.At(cyc)
		for b, in := range inputs {
			s.SetInput(in, v>>uint(b)&1 == 1)
		}
		s.Settle()
		var word uint64
		for b, out := range outputs {
			if s.Value(out) {
				word |= 1 << uint(b)
			}
		}
		trace[cyc] = word
		s.Step()
	}
	return trace
}

// FaultTrace simulates one faulty machine's output trace.
func FaultTrace(n *logic.Netlist, vecs VectorSeq, f Fault) ObservedTrace {
	s := logic.NewSimulator(n)
	s.InjectFault(f.Site, f.SA1)
	inputs := n.Inputs()
	outputs := n.Outputs()
	trace := make(ObservedTrace, vecs.Len())
	for cyc := 0; cyc < vecs.Len(); cyc++ {
		v := vecs.At(cyc)
		for b, in := range inputs {
			s.SetInput(in, v>>uint(b)&1 == 1)
		}
		s.Settle()
		var word uint64
		for b, out := range outputs {
			if s.Value(out) {
				word |= 1 << uint(b)
			}
		}
		trace[cyc] = word
		s.Step()
	}
	return trace
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
	// for the candidate list — e.g. from engine.Simulate, which spends
	// every core — so Diagnose skips its own serial simulation. Its
	// Faults slice replaces the candidate list.
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

	good := GoodTrace(n, vecs)
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

	w := logic.NewCompiledSim(logic.CompiledFor(n))
	inputs := n.Inputs()
	outputs := n.Outputs()
	var out []Candidate
	for start := 0; start < len(cands); start += 63 {
		batch := cands[start:min(start+63, len(cands))]
		w.Reset()
		for li, f := range batch {
			w.Inject(f.Site, f.SA1, uint(li+1))
		}
		w.ApplyInjectionsToValues()
		scores := make([]Candidate, len(batch))
		for i := range scores {
			scores[i] = Candidate{Fault: batch[i], ExactMatch: true}
		}
		liveMask := uint64(1)<<uint(len(batch)+1) - 2
		for cyc := 0; cyc < vecs.Len(); cyc++ {
			v := vecs.At(cyc)
			for bi, in := range inputs {
				w.SetInput(in, v>>uint(bi)&1 == 1)
			}
			w.Settle()
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
			w.ClockAfterSettle()
		}
		out = append(out, scores...)
	}
	return out
}
