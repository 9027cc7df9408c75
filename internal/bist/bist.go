// Package bist provides the two comparison baselines of the paper's
// Section 3.5: raw pseudorandom BIST (a 17-bit LFSR driving the
// instruction port directly, with no knowledge of the core's state or
// behavior) and gate-level sequential ATPG via bounded time-frame
// unrolling.
package bist

import (
	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/lfsr"
	"repro/internal/logic"
	"repro/internal/obs"
)

// PseudorandomVectors returns count raw 17-bit LFSR words (the paper
// generates all 131,071 = 2^17−1 of them, one full LFSR period).
func PseudorandomVectors(count int, seed uint64) fault.Vectors {
	l := lfsr.MustNew(17, seed)
	vecs := make(fault.Vectors, count)
	for i := range vecs {
		vecs[i] = l.Next()
	}
	return vecs
}

// FullPeriod is the number of distinct non-zero 17-bit LFSR states.
const FullPeriod = 1<<17 - 1

// ATPGBaselineResult reports the sequential-ATPG baseline run.
type ATPGBaselineResult struct {
	Frames        int
	FaultsTried   int
	TestsFound    int
	Untestable    int
	Aborted       int
	TotalFaults   int
	DetectedTotal int
	// Tests holds the generated tests; each is Frames input words
	// applied from the reset state.
	Tests [][]uint64
	// Stats aggregates the PODEM search effort over every targeted
	// fault (decisions, backtracks, aborts, implications).
	Stats atpg.Stats
}

// Coverage returns the fraction of the full collapsed fault list the
// generated test set detects — the number a commercial flow reports.
func (r ATPGBaselineResult) Coverage() float64 {
	if r.TotalFaults == 0 {
		return 0
	}
	return float64(r.DetectedTotal) / float64(r.TotalFaults)
}

// SeqATPGOptions configure the sequential-ATPG baseline.
type SeqATPGOptions struct {
	// Frames is the time-frame unroll depth.
	Frames int
	// SampleEvery targets every k-th collapsed fault (min 1).
	SampleEvery int
	// MaxBacktracks bounds each PODEM run.
	MaxBacktracks int
	// Progress, when non-nil, is called after each targeted fault.
	Progress func(done, total int)
	// Sink, when non-nil, receives a "seqatpg" span, one obs.EventPhase
	// per targeted fault (index, status, backtracks, seconds) and
	// throttleable obs.EventProgress samples.
	Sink obs.Sink
}

// SequentialATPGOpts runs the gate-level sequential ATPG baseline: the
// core is unrolled opts.Frames time frames from the reset state, PODEM
// targets every opts.SampleEvery-th collapsed fault, and the resulting
// test set is fault-simulated (each test from reset) against the full
// fault list.
//
// A pipelined core defeats this flow for the reason the paper gives: a
// useful test needs a long, coherent instruction sequence (load, compute,
// out), which a bounded unroll from reset cannot express — so coverage
// collapses to single digits.
func SequentialATPGOpts(n *logic.Netlist, opts SeqATPGOptions) (*ATPGBaselineResult, error) {
	faults, _ := fault.Collapse(n, fault.AllFaults(n))
	u, err := atpg.Unroll(n, opts.Frames)
	if err != nil {
		return nil, err
	}
	res := &ATPGBaselineResult{Frames: opts.Frames, TotalFaults: len(faults)}
	sampleEvery := opts.SampleEvery
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	span := obs.NewSpan(opts.Sink, "seqatpg")
	total := (len(faults) + sampleEvery - 1) / sampleEvery
	numInputs := len(n.Inputs())
	// A fault whose site no frame copies is untestable without a search;
	// the others are PODEM targets.
	var targets []atpg.Target
	var index []int // index[k]: the fault list position of targets[k]
	for i := 0; i < len(faults); i += sampleEvery {
		res.FaultsTried++
		if sites := u.Sites(faults[i].Site); len(sites) > 0 {
			targets = append(targets, atpg.Target{Fault: fault.Fault{Site: sites[0], SA1: faults[i].SA1}, Extra: sites[1:]})
			index = append(index, i)
		} else {
			res.Untestable++
		}
	}
	atpg.Each(u.Netlist, atpg.Options{MaxBacktracks: opts.MaxBacktracks}, targets, func(k int, r atpg.Result) bool {
		i := index[k]
		done := i/sampleEvery + 1 // every sampled fault up to this one has been tried
		res.Stats.Merge(r.Stats)
		switch r.Status {
		case atpg.Detected:
			res.TestsFound++
			test := make([]uint64, opts.Frames)
			for fr := 0; fr < opts.Frames; fr++ {
				var word uint64
				for bit := 0; bit < numInputs; bit++ {
					if r.Assignment[u.InputAt[fr][bit]] {
						word |= 1 << uint(bit)
					}
				}
				test[fr] = word
			}
			res.Tests = append(res.Tests, test)
		case atpg.Untestable:
			res.Untestable++
		case atpg.Aborted:
			res.Aborted++
		}
		if span != nil {
			span.EventNamed(obs.EventPhase, "fault", map[string]any{
				"index":      i,
				"status":     r.Status.String(),
				"backtracks": r.Stats.Backtracks,
				"decisions":  r.Stats.Decisions,
				"seconds":    r.Elapsed.Seconds(),
			})
			span.Event(obs.EventProgress, map[string]any{
				"done":  done,
				"total": total,
			})
		}
		if opts.Progress != nil {
			opts.Progress(done, total)
		}
		return true
	})
	span.Add("tests_found", int64(res.TestsFound))
	span.Add("untestable", int64(res.Untestable))
	span.Add("aborted", int64(res.Aborted))
	span.Add("backtracks", int64(res.Stats.Backtracks))

	// Grade the test set: each test runs from reset, so faults are
	// simulated test by test with dropping in between.
	remaining := faults
	detected := 0
	for _, test := range res.Tests {
		if len(remaining) == 0 {
			break
		}
		sim, err := fault.Simulate(n, fault.Vectors(test), fault.SimOptions{Faults: remaining})
		if err != nil {
			return nil, err
		}
		var next []fault.Fault
		for i := range sim.Faults {
			if sim.DetectedAt[i] >= 0 {
				detected++
			} else {
				next = append(next, sim.Faults[i])
			}
		}
		remaining = next
	}
	res.DetectedTotal = detected
	span.Event(obs.EventSummary, map[string]any{
		"frames":      res.Frames,
		"tried":       res.FaultsTried,
		"tests_found": res.TestsFound,
		"untestable":  res.Untestable,
		"aborted":     res.Aborted,
		"detected":    res.DetectedTotal,
		"faults":      res.TotalFaults,
		"coverage":    res.Coverage(),
	})
	span.End()
	return res, nil
}
