package atpg

// The full-sweep PODEM engine this package shipped before the
// event-driven Solver, kept as the reference the Solver is tested
// against: every implication re-evaluates the whole frame, and the
// D-frontier scan covers all of CombOrder. The Solver must make the
// same decisions and backtracks and return the same Status and
// Assignment wherever every X source is assignable (beyond that the
// Solver explores backtrace alternatives this engine gives up on).
//
// One change to the search: objective falls back to activating a site
// that is still X when the D-frontier is empty. The parent backtracked
// there, which for a multi-site fault (ExtraSites) could skip the only
// tests and report a testable fault untestable; single-site runs never
// reach the fallback, so for them this is the parent's search verbatim.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
)

type refPodem struct {
	n       *logic.Netlist
	vals    []Value
	isPI    []bool
	isFixed []bool
	sites   []logic.NetID
	siteSet []bool
	sa1     bool
	observe []logic.NetID
	// reach[net] reports whether an assignable PI lies in the net's
	// input cone (computed once; guides backtrace away from dead paths).
	reach     []bool
	assign    map[logic.NetID]bool
	maxBT     int
	bts       int
	decisions int
	implies   int
}

// referenceGenerate is the parent's Generate, verbatim apart from the
// dropped obs counters and Result.Backtracks.
func referenceGenerate(n *logic.Netlist, f fault.Fault, opts Options) Result {
	p := &refPodem{
		n:       n,
		vals:    make([]Value, n.NumNets()),
		isPI:    make([]bool, n.NumNets()),
		isFixed: make([]bool, n.NumNets()),
		siteSet: make([]bool, n.NumNets()),
		sa1:     f.SA1,
		assign:  map[logic.NetID]bool{},
		maxBT:   opts.MaxBacktracks,
	}
	if p.maxBT <= 0 {
		p.maxBT = 2000
	}
	pis := opts.PIs
	if len(pis) == 0 {
		pis = n.Inputs()
	}
	for _, pi := range pis {
		if _, fixed := opts.Fixed[pi]; !fixed {
			p.isPI[pi] = true
		}
	}
	for net, v := range opts.Fixed {
		p.isFixed[net] = true
		p.vals[net] = fromBool(v)
	}
	p.sites = append([]logic.NetID{f.Site}, opts.ExtraSites...)
	for _, s := range p.sites {
		p.siteSet[s] = true
	}
	p.observe = opts.Observe
	if len(p.observe) == 0 {
		p.observe = n.Outputs()
	}
	p.computeReach()
	p.imply()
	st := p.search()
	res := Result{
		Status: st,
		Stats: Stats{
			Decisions:    p.decisions,
			Backtracks:   p.bts,
			Implications: p.implies,
		},
	}
	if st == Aborted {
		res.Stats.Aborts = 1
	}
	if st == Detected {
		res.Assignment = p.assign
	}
	return res
}

func (p *refPodem) computeReach() {
	p.reach = make([]bool, p.n.NumNets())
	for id := 0; id < p.n.NumNets(); id++ {
		net := logic.NetID(id)
		if p.isPI[net] {
			p.reach[net] = true
		}
	}
	for _, id := range p.n.CombOrder() {
		g := p.n.Gate(id)
		for _, in := range g.In {
			if p.reach[in] {
				p.reach[id] = true
				break
			}
		}
	}
}

// imply fully re-evaluates the frame under the current assignment,
// injecting the fault at every site.
func (p *refPodem) imply() {
	p.implies++
	n := p.n
	for id := 0; id < n.NumNets(); id++ {
		net := logic.NetID(id)
		var v Value
		switch n.Gate(net).Kind {
		case logic.GateConst0:
			v = V0
		case logic.GateConst1:
			v = V1
		case logic.GateInput, logic.GateDFF:
			v = VX
			if p.isFixed[net] {
				v = p.vals[net].good()
			} else if b, ok := p.assign[net]; ok {
				v = fromBool(b)
			}
		default:
			continue
		}
		p.vals[net] = p.site(net, v)
	}
	for _, id := range n.CombOrder() {
		g := n.Gate(id)
		var v Value
		switch g.Kind {
		case logic.GateBuf:
			v = p.vals[g.In[0]]
		case logic.GateNot:
			v = not(p.vals[g.In[0]])
		case logic.GateAnd, logic.GateNand:
			v = V1
			for _, in := range g.In {
				v = andV(v, p.vals[in])
			}
			if g.Kind == logic.GateNand {
				v = not(v)
			}
		case logic.GateOr, logic.GateNor:
			v = V0
			for _, in := range g.In {
				v = orV(v, p.vals[in])
			}
			if g.Kind == logic.GateNor {
				v = not(v)
			}
		case logic.GateXor, logic.GateXnor:
			v = V0
			for _, in := range g.In {
				v = xorV(v, p.vals[in])
			}
			if g.Kind == logic.GateXnor {
				v = not(v)
			}
		case logic.GateMux2:
			sel, a, b := p.vals[g.In[0]], p.vals[g.In[1]], p.vals[g.In[2]]
			v = muxV(sel, a, b)
		default:
			panic(fmt.Sprintf("atpg: unexpected gate kind %v in comb order", g.Kind))
		}
		p.vals[id] = p.site(id, v)
	}
}

// site applies fault injection: the faulty projection is forced to the
// stuck value while the good projection keeps v's good part.
func (p *refPodem) site(net logic.NetID, v Value) Value {
	if !p.siteSet[net] {
		return v
	}
	return compose(v.good(), fromBool(p.sa1))
}

func (p *refPodem) detected() bool {
	for _, o := range p.observe {
		if p.vals[o].hasD() {
			return true
		}
	}
	return false
}

// activated reports whether some site carries a D.
func (p *refPodem) activated() bool {
	for _, s := range p.sites {
		if p.vals[s].hasD() {
			return true
		}
	}
	return false
}

// activationImpossible reports whether no site can activate under the
// current assignment. After injection a site's value is either the stuck
// value (good machine agrees with the fault: known, no D), a D (good
// machine differs), or X (good machine undetermined). Activation is
// impossible exactly when every site is known — i.e. none is D or X.
func (p *refPodem) activationImpossible() bool {
	for _, s := range p.sites {
		if !p.vals[s].known() {
			return false
		}
	}
	return true
}

type refDecision struct {
	pi        logic.NetID
	value     bool
	triedBoth bool
}

func (p *refPodem) search() Status {
	var stack []refDecision
	for {
		if p.detected() {
			return Detected
		}
		obj, objVal, ok := p.objective()
		if ok {
			pi, piVal, found := p.backtrace(obj, objVal)
			if found {
				p.decisions++
				stack = append(stack, refDecision{pi: pi, value: piVal})
				p.assign[pi] = piVal
				p.imply()
				continue
			}
		}
		// No progress possible: backtrack.
		for {
			p.bts++
			if p.bts > p.maxBT {
				return Aborted
			}
			if len(stack) == 0 {
				return Untestable
			}
			top := &stack[len(stack)-1]
			if !top.triedBoth {
				top.triedBoth = true
				top.value = !top.value
				p.assign[top.pi] = top.value
				p.imply()
				break
			}
			delete(p.assign, top.pi)
			stack = stack[:len(stack)-1]
			p.imply()
		}
	}
}

// objective picks the next goal: activate the fault, then extend the
// D-frontier toward an observe point.
func (p *refPodem) objective() (logic.NetID, Value, bool) {
	if !p.activated() {
		if p.activationImpossible() {
			return 0, VX, false
		}
		for _, s := range p.sites {
			if p.vals[s] == VX {
				return s, fromBool(!p.sa1), true
			}
		}
		return 0, VX, false
	}
	// D-frontier: gate with X output and a D input, preferring gates
	// that can reach an observe point (all can, in a connected cone).
	for _, id := range p.n.CombOrder() {
		if p.vals[id] != VX {
			continue
		}
		g := p.n.Gate(id)
		hasD := false
		for _, in := range g.In {
			if p.vals[in].hasD() {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		// Pick a controllable X input and the value that unblocks
		// propagation (an X input with no assignable PI in its cone can
		// never be set, so that gate is dead for propagation).
		for pin, in := range g.In {
			if p.vals[in] != VX || !p.reach[in] {
				continue
			}
			switch g.Kind {
			case logic.GateAnd, logic.GateNand:
				return in, V1, true
			case logic.GateOr, logic.GateNor:
				return in, V0, true
			case logic.GateXor, logic.GateXnor:
				return in, V0, true
			case logic.GateMux2:
				if pin == 0 {
					// Select whichever data input carries the D.
					if p.vals[g.In[2]].hasD() {
						return in, V1, true
					}
					return in, V0, true
				}
				return in, V0, true
			default:
				return in, V0, true
			}
		}
	}
	// Not in the parent's engine: with no frontier gate to advance, a
	// site still at X may yet activate (see the header comment).
	for _, s := range p.sites {
		if p.vals[s] == VX {
			return s, fromBool(!p.sa1), true
		}
	}
	return 0, VX, false
}

// backtrace maps an objective to an unassigned PI assignment along a
// path of X values, inverting the target value through inverting gates.
func (p *refPodem) backtrace(net logic.NetID, val Value) (logic.NetID, bool, bool) {
	for depth := 0; depth < p.n.NumNets(); depth++ {
		if p.isPI[net] {
			if _, done := p.assign[net]; done {
				return 0, false, false
			}
			return net, val == V1, true
		}
		g := p.n.Gate(net)
		if g.Kind == logic.GateInput || g.Kind == logic.GateDFF ||
			g.Kind == logic.GateConst0 || g.Kind == logic.GateConst1 {
			return 0, false, false // non-assignable source
		}
		// Choose an X input whose cone contains an assignable PI.
		next := logic.InvalidNet
		for _, in := range g.In {
			if p.vals[in] == VX && p.reach[in] {
				next = in
				break
			}
		}
		if next == logic.InvalidNet {
			return 0, false, false
		}
		switch g.Kind {
		case logic.GateNot, logic.GateNand, logic.GateNor:
			val = not(val)
		case logic.GateXnor:
			val = not(val)
		case logic.GateBuf, logic.GateAnd, logic.GateOr, logic.GateXor, logic.GateMux2:
			// Value preserved (heuristically, for XOR/MUX).
		}
		net = next
	}
	return 0, false, false
}
