package fault

import (
	"fmt"
	"sort"

	"repro/internal/logic"
)

// Path is a structural combinational path: a chain of nets from a frame
// source (primary input or flip-flop output) to a frame sink, each net
// driven by a gate reading the previous one.
type Path struct {
	Nets []logic.NetID
}

// String renders the path compactly.
func (p Path) String() string {
	if len(p.Nets) == 0 {
		return "path()"
	}
	return fmt.Sprintf("path(%d→%d, %d nets)", p.Nets[0], p.Nets[len(p.Nets)-1], len(p.Nets))
}

// LongestPaths extracts up to count structurally longest combinational
// paths (the critical paths a delay test targets — reference [5] of the
// paper synthesizes test programs for exactly these). Paths are traced
// back from the deepest nets through each gate's deepest input.
func LongestPaths(n *logic.Netlist, count int) []Path {
	// Endpoints sorted by depth, deepest first.
	ends := append([]logic.NetID(nil), n.CombOrder()...)
	sort.Slice(ends, func(i, j int) bool { return n.Level(ends[i]) > n.Level(ends[j]) })
	var paths []Path
	for _, end := range ends {
		if len(paths) >= count {
			break
		}
		nets := []logic.NetID{end}
		for id := end; n.Level(id) > 0; {
			// The gate's first input one level down is its deepest.
			for _, in := range n.Gate(id).In {
				if n.Level(in) == n.Level(id)-1 {
					id = in
					break
				}
			}
			nets = append(nets, id)
		}
		// Reverse to source-first order.
		for i, j := 0, len(nets)-1; i < j; i, j = i+1, j-1 {
			nets[i], nets[j] = nets[j], nets[i]
		}
		if len(nets) < 2 {
			continue
		}
		paths = append(paths, Path{Nets: nets})
	}
	return paths
}

// PathDelayResult reports robust path-delay coverage: for each path and
// launch polarity, the first cycle pair that robustly tests it.
type PathDelayResult struct {
	Paths []Path
	// RisingAt[i]/FallingAt[i] give the capture cycle of the first
	// robust test of path i for a rising/falling launch, or −1.
	RisingAt, FallingAt []int32
	Cycles              int
}

// Coverage returns the fraction of (path, polarity) targets robustly
// tested.
func (r *PathDelayResult) Coverage() float64 {
	if len(r.Paths) == 0 {
		return 0
	}
	hit := 0
	for i := range r.Paths {
		if r.RisingAt[i] >= 0 {
			hit++
		}
		if r.FallingAt[i] >= 0 {
			hit++
		}
	}
	return float64(hit) / float64(2*len(r.Paths))
}

// SimulatePathDelay scans the fault-free simulation of the vector stream
// for cycle pairs that robustly test each path: the launch net
// transitions, every on-path net transitions accordingly (respecting
// gate inversions), and at every gate along the path the side inputs
// hold stable non-controlling values across both cycles — the classical
// robust sensitization condition. Capture at the path's sink counts as a
// test (the sink is a flip-flop D or output in a functional test, whose
// observation the surrounding program provides).
func SimulatePathDelay(n *logic.Netlist, vecs VectorSeq, paths []Path) (*PathDelayResult, error) {
	if len(n.Inputs()) > 64 {
		return nil, fmt.Errorf("fault: %d primary inputs exceed the 64 supported", len(n.Inputs()))
	}
	res := &PathDelayResult{
		Paths:     paths,
		RisingAt:  make([]int32, len(paths)),
		FallingAt: make([]int32, len(paths)),
		Cycles:    vecs.Len(),
	}
	for i := range paths {
		res.RisingAt[i] = -1
		res.FallingAt[i] = -1
	}
	prev := make([]bool, n.NumNets())
	cur := make([]bool, n.NumNets())
	remaining := 2 * len(paths)
	runLanes(n, vecs, nil, func(cyc int, s *logic.CompiledSim) bool {
		for id := range cur {
			cur[id] = s.Word(logic.NetID(id))&1 == 1
		}
		if cyc > 0 {
			for pi := range paths {
				if res.RisingAt[pi] >= 0 && res.FallingAt[pi] >= 0 {
					continue
				}
				rising, ok := robustTest(n, paths[pi], prev, cur)
				if !ok {
					continue
				}
				if rising && res.RisingAt[pi] < 0 {
					res.RisingAt[pi] = int32(cyc)
					remaining--
				}
				if !rising && res.FallingAt[pi] < 0 {
					res.FallingAt[pi] = int32(cyc)
					remaining--
				}
			}
		}
		prev, cur = cur, prev
		return remaining > 0
	})
	return res, nil
}

// robustTest checks whether the cycle pair (prev, cur) robustly tests
// the path, returning the launch polarity at the path head.
func robustTest(n *logic.Netlist, p Path, prev, cur []bool) (rising bool, ok bool) {
	head := p.Nets[0]
	if prev[head] == cur[head] {
		return false, false // no launch
	}
	rising = cur[head]
	// Walk the path: each step enters a gate through the on-path input;
	// the transition must propagate (value toggles, possibly inverted)
	// and side inputs must be stable non-controlling.
	for step := 1; step < len(p.Nets); step++ {
		onPathIn := p.Nets[step-1]
		out := p.Nets[step]
		if prev[out] == cur[out] {
			return false, false // transition died
		}
		g := n.Gate(out)
		var ctrl bool
		var hasCtrl bool
		switch g.Kind {
		case logic.GateAnd, logic.GateNand:
			ctrl, hasCtrl = false, true
		case logic.GateOr, logic.GateNor:
			ctrl, hasCtrl = true, true
		case logic.GateBuf, logic.GateNot, logic.GateXor, logic.GateXnor:
			hasCtrl = false
		case logic.GateMux2:
			// Robust only when the select is stable and routes the
			// on-path data input (a transition through the select is
			// treated as non-robust).
			sel := g.In[0]
			if onPathIn == sel {
				return false, false
			}
			if prev[sel] != cur[sel] {
				return false, false
			}
			want := g.In[1]
			if cur[sel] {
				want = g.In[2]
			}
			if want != onPathIn {
				return false, false
			}
			continue
		default:
			return false, false
		}
		for _, in := range g.In {
			if in == onPathIn {
				continue
			}
			if hasCtrl {
				// Side inputs stable at the non-controlling value.
				if prev[in] != cur[in] || cur[in] == ctrl {
					return false, false
				}
			} else {
				// XOR-class gates: side inputs merely stable.
				if prev[in] != cur[in] {
					return false, false
				}
			}
		}
	}
	return rising, true
}
