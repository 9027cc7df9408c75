package fault

import (
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/obs"
)

// QualityOptions size a multi-model test-quality evaluation.
type QualityOptions struct {
	// NDetect, when >1, also reports n-detect stuck-at coverage.
	NDetect int
	// BridgeSample is the number of random bridging faults to grade
	// (0 disables the bridge pass).
	BridgeSample int
	// PathPairs is the number of gate-hop path segments to grade for
	// robust delay testing (0 disables).
	PathPairs int
	// Seed drives the bridge/path sampling.
	Seed int64
	// Sink, when non-nil, receives a "quality" span with one child span
	// per graded fault model (stuck_at, transition, bridging,
	// path_delay), each ending with its timing and coverage counters.
	Sink obs.Sink
}

// QualityReport aggregates every supported fault model's coverage for
// one test — the one-stop answer to "how good is this self-test
// program".
type QualityReport struct {
	Vectors int

	StuckAt       *Result
	Transition    *TransitionResult
	NDetect       int
	NDetectCov    float64
	BridgeDet     int
	BridgeTotal   int
	PathDelay     *PathDelayResult
	PathDelayOpts int
}

// Quality grades a vector stream against stuck-at, transition and
// (sampled) bridging and path-delay fault models.
func Quality(n *logic.Netlist, vecs VectorSeq, opts QualityOptions) (*QualityReport, error) {
	rep := &QualityReport{Vectors: vecs.Len(), NDetect: opts.NDetect}
	root := obs.NewSpan(opts.Sink, "quality")
	defer root.End()

	sub := root.Child("stuck_at")
	sa, err := Simulate(n, vecs, SimOptions{NDetect: opts.NDetect, Sink: opts.Sink})
	if err != nil {
		return nil, err
	}
	rep.StuckAt = sa
	if opts.NDetect > 1 {
		rep.NDetectCov = sa.NDetectCoverage(opts.NDetect)
	}
	sub.Add("detected", int64(sa.Detected()))
	sub.Add("faults", int64(len(sa.Faults)))
	sub.End()

	sub = root.Child("transition")
	td, err := SimulateTransitions(n, vecs, nil)
	if err != nil {
		return nil, err
	}
	rep.Transition = td
	sub.Add("detected", int64(td.Detected()))
	sub.Add("faults", int64(len(td.Faults)))
	sub.End()

	if opts.BridgeSample > 0 {
		sub = root.Child("bridging")
		bridges := RandomBridges(n, opts.BridgeSample, opts.Seed)
		first, err := SimulateBridges(n, vecs, bridges)
		if err != nil {
			return nil, err
		}
		rep.BridgeTotal = len(bridges)
		for _, at := range first {
			if at >= 0 {
				rep.BridgeDet++
			}
		}
		sub.Add("detected", int64(rep.BridgeDet))
		sub.Add("faults", int64(rep.BridgeTotal))
		sub.End()
	}
	if opts.PathPairs > 0 {
		var paths []Path
		for _, out := range n.CombOrder() {
			g := n.Gate(out)
			if len(g.In) == 0 {
				continue
			}
			paths = append(paths, Path{Nets: []logic.NetID{g.In[0], out}})
			if len(paths) >= opts.PathPairs {
				break
			}
		}
		sub = root.Child("path_delay")
		pd, err := SimulatePathDelay(n, vecs, paths)
		if err != nil {
			return nil, err
		}
		rep.PathDelay = pd
		sub.Add("paths", int64(len(pd.Paths)))
		sub.End()
	}
	return rep, nil
}

// String renders the report as an aligned block.
func (r *QualityReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "test quality over %d vectors:\n", r.Vectors)
	fmt.Fprintf(&sb, "  stuck-at      %6.2f%%  (%d/%d collapsed faults)\n",
		100*r.StuckAt.Coverage(), r.StuckAt.Detected(), len(r.StuckAt.Faults))
	if r.NDetect > 1 {
		fmt.Fprintf(&sb, "  %d-detect      %6.2f%%\n", r.NDetect, 100*r.NDetectCov)
	}
	fmt.Fprintf(&sb, "  transition    %6.2f%%  (%d/%d, late-edge model)\n",
		100*r.Transition.Coverage(), r.Transition.Detected(), len(r.Transition.Faults))
	if r.BridgeTotal > 0 {
		fmt.Fprintf(&sb, "  bridging      %6.2f%%  (%d/%d sampled)\n",
			100*float64(r.BridgeDet)/float64(r.BridgeTotal), r.BridgeDet, r.BridgeTotal)
	}
	if r.PathDelay != nil {
		fmt.Fprintf(&sb, "  path delay    %6.2f%%  (robust, %d gate-hop targets)\n",
			100*r.PathDelay.Coverage(), 2*len(r.PathDelay.Paths))
	}
	return sb.String()
}
