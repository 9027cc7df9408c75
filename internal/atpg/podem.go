// Package atpg implements combinational test pattern generation with
// the PODEM algorithm over a five-valued calculus (0, 1, X, D, D̄), plus
// bounded time-frame unrolling for sequential targets. Implication is
// event-driven over the levels logic.Netlist computes at build, at O(1)
// per scheduled gate. A Solver holds what depends on the options as
// well as the netlist, so a loop over a fault list pays for it once;
// Generate is the one-shot form, and Each runs a fault list on every
// core, one Solver per goroutine.
//
// Three consumers in this repository:
//   - the Phase-3 "random resistant patterns" top-up, which runs PODEM on
//     the core's combinational frame with the execute-stage operand
//     registers as decision inputs;
//   - the control-bit constraint study (paper Section 3.4), which runs
//     PODEM on a standalone component with its mode bits fixed;
//   - the sequential-ATPG baseline (paper Section 3.5), which unrolls the
//     core a few time frames and demonstrates why gate-level sequential
//     ATPG collapses on a pipelined core.
package atpg

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Value is the five-valued PODEM calculus. D means good-machine 1 /
// faulty-machine 0; DB the reverse.
type Value uint8

// Calculus values.
const (
	VX Value = iota
	V0
	V1
	VD
	VDB
)

// String renders the conventional symbol.
func (v Value) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	case VD:
		return "D"
	case VDB:
		return "D'"
	}
	return "X"
}

func (v Value) known() bool { return v == V0 || v == V1 }
func (v Value) hasD() bool  { return v == VD || v == VDB }
func (v Value) good() Value { // good-machine projection
	switch v {
	case VD:
		return V1
	case VDB:
		return V0
	}
	return v
}
func (v Value) bad() Value { // faulty-machine projection
	switch v {
	case VD:
		return V0
	case VDB:
		return V1
	}
	return v
}

func fromBool(b bool) Value {
	if b {
		return V1
	}
	return V0
}

// compose builds the composite value from good/faulty projections.
func compose(good, bad Value) Value {
	if good == VX || bad == VX {
		return VX
	}
	if good == bad {
		return good
	}
	if good == V1 {
		return VD
	}
	return VDB
}

func not(v Value) Value {
	switch v {
	case V0:
		return V1
	case V1:
		return V0
	case VD:
		return VDB
	case VDB:
		return VD
	}
	return VX
}

// andV implements five-valued AND.
func andV(a, b Value) Value {
	if a == V0 || b == V0 {
		return V0
	}
	if a == V1 {
		return b
	}
	if b == V1 {
		return a
	}
	if a == VX || b == VX {
		return VX
	}
	if a == b {
		return a
	}
	return V0 // D AND D' = 0
}

func orV(a, b Value) Value { return not(andV(not(a), not(b))) }

func xorV(a, b Value) Value {
	if a == VX || b == VX {
		return VX
	}
	return compose(xor2(a.good(), b.good()), xor2(a.bad(), b.bad()))
}

func xor2(a, b Value) Value {
	if a == b {
		return V0
	}
	return V1
}

// andT, orT and xorT tabulate andV, orV and xorV, which stay their
// definition; eval reads the tables.
var andT, orT, xorT [5][5]Value

func init() {
	for a := VX; a <= VDB; a++ {
		for b := VX; b <= VDB; b++ {
			andT[a][b], orT[a][b], xorT[a][b] = andV(a, b), orV(a, b), xorV(a, b)
		}
	}
}

// Status classifies a PODEM run.
type Status uint8

// Run outcomes.
const (
	// Detected: a test was found; Result.Assignment holds it.
	Detected Status = iota
	// Untestable: the search space was exhausted — no test exists under
	// the given inputs, constraints and observation points.
	Untestable
	// Aborted: the backtrack limit was hit before a conclusion.
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	}
	return "aborted"
}

// Options configure a PODEM run.
type Options struct {
	// PIs are the nets PODEM may assign. They must be sources of the
	// combinational frame (primary inputs or DFF Q nets). Empty means
	// all primary inputs.
	PIs []logic.NetID
	// Fixed pre-assigns constant values (constraints); fixed nets are
	// never decided or backtraced through.
	Fixed map[logic.NetID]bool
	// Observe lists the nets where a D/D̄ arrival counts as detection.
	// Empty means the netlist's primary outputs.
	Observe []logic.NetID
	// MaxBacktracks bounds the search (default 2000).
	MaxBacktracks int
	// ExtraSites injects the same fault at additional nets (used by
	// time-frame unrolling, where one physical fault appears once per
	// frame). Sites that differ per fault go to Solver.Generate instead.
	ExtraSites []logic.NetID
}

// FullScan returns the full-scan bound for n: every primary input and
// flip-flop Q net is assignable, and a fault effect counts as detected
// at a primary output or at a flip-flop's D pin. A fault untestable
// under these options is structurally untestable.
func FullScan(n *logic.Netlist) Options {
	pis := append(append([]logic.NetID(nil), n.Inputs()...), n.DFFs()...)
	observe := append([]logic.NetID(nil), n.Outputs()...)
	for _, q := range n.DFFs() {
		observe = append(observe, n.Gate(q).In[0])
	}
	return Options{PIs: pis, Observe: observe}
}

// Stats counts the search effort of one or more PODEM runs: decisions
// (PI assignments pushed on the decision stack), backtracks (decision
// reversals, including second-value retries), aborts (runs that hit the
// backtrack limit), implications (implication passes: one for the fault
// injection, one per decision, one per second-value retry and one per
// popped decision — a pop restores values from the trail and evaluates
// nothing, but still counts, so the number depends on the search alone)
// and gate evaluations (five-valued evaluations of one gate, the work
// the passes actually did). Stats add across runs with Merge, which is
// how callers like the sequential-ATPG baseline aggregate per-campaign
// totals.
type Stats struct {
	Decisions    int
	Backtracks   int
	Aborts       int
	Implications int
	GateEvals    int
}

// Merge accumulates another run's counts.
func (s *Stats) Merge(o Stats) {
	s.Decisions += o.Decisions
	s.Backtracks += o.Backtracks
	s.Aborts += o.Aborts
	s.Implications += o.Implications
	s.GateEvals += o.GateEvals
}

// Result reports a PODEM run.
type Result struct {
	Status Status
	// Assignment holds the PI values of the found test (unassigned PIs
	// are don't-cares and absent).
	Assignment map[logic.NetID]bool
	// Stats breaks down the search effort of this run.
	Stats Stats
	// Elapsed is the run's wall time.
	Elapsed time.Duration
}

// Default-registry counters aggregated across every PODEM run in the
// process (snapshotted into traces by obs.Runtime.Close).
var (
	ctrDecisions    = obs.Default().Counter("podem.decisions")
	ctrBacktracks   = obs.Default().Counter("podem.backtracks")
	ctrAborts       = obs.Default().Counter("podem.aborts")
	ctrImplications = obs.Default().Counter("podem.implications")
	ctrGateEvals    = obs.Default().Counter("podem.gate_evals")
	ctrRuns         = obs.Default().Counter("podem.runs")
)

// Generate runs PODEM for one stuck-at fault: the one-shot form of
// NewSolver(n, opts).Generate(f). Loops over many faults of one netlist
// under one set of options should build the Solver once.
func Generate(n *logic.Netlist, f fault.Fault, opts Options) Result {
	return NewSolver(n, opts).Generate(f)
}

// Solver runs PODEM for any number of faults of one netlist under one
// set of Options. The netlist carries each net's CombOrder rank and
// topological level; what depends on the options as well — which nets
// an assignable PI can reach, and the fault-free values implied by the
// constants and by Options.Fixed — is computed once by NewSolver,
// beside the state arrays and the event queue. Each Generate injects
// its fault into that base state, searches, and undoes its own changes.
//
// Implication is event-driven: a changed net puts the gates reading it
// in the bucket of their level, one pass empties the buckets in level
// order, and propagation stops where a value does not change. A gate's
// level exceeds that of every net it reads, so it runs at most once per
// pass, on final inputs, and each event costs O(1). Every change is
// pushed on a trail, so reversing or popping a decision restores old
// values instead of implying again.
//
// A Solver is not safe for concurrent use.
type Solver struct {
	n     *logic.Netlist
	vals  []Value
	isPI  []bool
	isObs []bool
	// reach[net] reports whether an assignable PI lies in the net's
	// input cone (guides backtrace away from dead paths).
	reach []bool
	extra []logic.NetID // Options.ExtraSites
	maxBT int

	// assign[pi] is the value decided for pi, VX while undecided.
	assign []Value
	stack  []decision
	trail  []change
	// The gates waiting for evaluation in the current pass sit in one
	// bucket per level, a list threaded through next: head[l] is the last
	// gate of level l scheduled (InvalidNet when none) and next[g] the
	// one scheduled before g. pending counts the waiting gates, lo is the
	// lowest level that may hold one, and queued[net] keeps each gate in
	// its bucket once.
	head    []logic.NetID
	next    []logic.NetID
	pending int
	lo      int
	queued  []bool
	// front is the D-frontier found by the last faultEffects call, as
	// ranks in ascending order, and walk that call's work stack. epoch
	// numbers the search steps: seen[net] == epoch marks a net the
	// step's walk visited, dead[net] == epoch one its backtraces found
	// no way through.
	front []int32
	walk  []logic.NetID
	seen  []uint32
	dead  []uint32
	epoch uint32

	sites   []logic.NetID
	siteSet []bool
	sa1     bool

	bts, decisions, implies, evals int

	// afterPass, when set (tests only), runs at the end of every
	// implication pass.
	afterPass func()
}

type decision struct {
	pi        logic.NetID
	value     bool
	triedBoth bool
	// mark is the trail length before the decision was applied.
	mark int
}

// change records one net's previous value on the trail.
type change struct {
	net logic.NetID
	old Value
}

// NewSolver prepares PODEM runs on n under opts.
func NewSolver(n *logic.Netlist, opts Options) *Solver {
	nets := n.NumNets()
	values := make([]Value, 2*nets) // all VX
	flags := make([]bool, 5*nets)
	stamps := make([]uint32, 2*nets)
	// CombOrder runs level by level, so its last gate has the top level.
	levels := 1
	if order := n.CombOrder(); len(order) > 0 {
		levels += n.Level(order[len(order)-1])
	}
	p := &Solver{
		n:       n,
		vals:    values[:nets],
		assign:  values[nets:],
		isPI:    flags[:nets],
		isObs:   flags[nets : 2*nets],
		reach:   flags[2*nets : 3*nets],
		siteSet: flags[3*nets : 4*nets],
		queued:  flags[4*nets:],
		seen:    stamps[:nets],
		dead:    stamps[nets:],
		head:    make([]logic.NetID, levels),
		next:    make([]logic.NetID, nets),
		lo:      levels,
		extra:   opts.ExtraSites,
		maxBT:   opts.MaxBacktracks,
	}
	if p.maxBT <= 0 {
		p.maxBT = 2000
	}
	for l := range p.head {
		p.head[l] = logic.InvalidNet
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
	observe := opts.Observe
	if len(observe) == 0 {
		observe = n.Outputs()
	}
	for _, o := range observe {
		p.isObs[o] = true
	}
	p.computeReach()

	// Base implication: with every source at X the whole frame is X, so
	// the fault-free state follows from the constants and the fixed
	// sources alone. It is never undone.
	for id := 0; id < nets; id++ {
		net := logic.NetID(id)
		switch n.Gate(net).Kind {
		case logic.GateConst0:
			p.set(net, V0)
		case logic.GateConst1:
			p.set(net, V1)
		case logic.GateInput, logic.GateDFF:
			if v, fixed := opts.Fixed[net]; fixed {
				p.set(net, fromBool(v))
			}
		}
	}
	p.propagate()
	p.trail = p.trail[:0]
	ctrGateEvals.Add(int64(p.evals))
	return p
}

func (p *Solver) computeReach() {
	copy(p.reach, p.isPI)
	for _, id := range p.n.CombOrder() {
		for _, in := range p.n.Gate(id).In {
			if p.reach[in] {
				p.reach[id] = true
				break
			}
		}
	}
}

// Generate runs PODEM for one stuck-at fault, injected at f.Site, at
// Options.ExtraSites and at extraSites (the per-fault form of the same
// thing: one physical fault seen once per unrolled time frame). The
// solver is back in its base state when Generate returns. Stats count
// this fault's search alone, so they do not depend on which runs the
// solver did before; NewSolver adds the base implication's evaluations
// to the podem.gate_evals counter itself.
func (p *Solver) Generate(f fault.Fault, extraSites ...logic.NetID) Result {
	start := time.Now()
	p.sites = append(append(append(p.sites[:0], f.Site), p.extra...), extraSites...)
	p.sa1 = f.SA1
	p.bts, p.decisions, p.implies, p.evals = 0, 0, 0, 0
	for _, s := range p.sites {
		p.siteSet[s] = true
	}
	for _, s := range p.sites {
		p.set(s, p.site(s, p.vals[s]))
	}
	p.propagate()

	st := p.search()
	res := Result{
		Status: st,
		Stats: Stats{
			Decisions:    p.decisions,
			Backtracks:   p.bts,
			Implications: p.implies,
			GateEvals:    p.evals,
		},
	}
	if st == Aborted {
		res.Stats.Aborts = 1
	}
	if st == Detected {
		res.Assignment = make(map[logic.NetID]bool, len(p.stack))
		for _, d := range p.stack {
			res.Assignment[d.pi] = d.value
		}
	}

	p.undo(0)
	for _, d := range p.stack {
		p.assign[d.pi] = VX
	}
	p.stack = p.stack[:0]
	for _, s := range p.sites {
		p.siteSet[s] = false
	}
	res.Elapsed = time.Since(start)

	ctrRuns.Add(1)
	ctrDecisions.Add(int64(res.Stats.Decisions))
	ctrBacktracks.Add(int64(res.Stats.Backtracks))
	ctrImplications.Add(int64(res.Stats.Implications))
	ctrGateEvals.Add(int64(res.Stats.GateEvals))
	ctrAborts.Add(int64(res.Stats.Aborts))
	return res
}

// set gives net a new value: the old one goes on the trail and the
// gates reading net are scheduled.
func (p *Solver) set(net logic.NetID, v Value) {
	if p.vals[net] == v {
		return
	}
	p.trail = append(p.trail, change{net, p.vals[net]})
	p.vals[net] = v
	for _, out := range p.n.Fanout(net) {
		l := p.n.Level(out)
		if l == 0 || p.queued[out] { // level 0: a DFF, which reads net after the frame settles
			continue
		}
		p.queued[out] = true
		p.next[out], p.head[l] = p.head[l], out
		p.pending++
		p.lo = min(p.lo, l)
	}
}

// propagate is one implication pass: it evaluates the scheduled gates
// level by level until no value changes. A gate's inputs all sit at
// lower levels, so they are final when it runs and it runs once; what
// it schedules sits higher, so a bucket does not change while it
// empties.
func (p *Solver) propagate() {
	for l := p.lo; p.pending > 0; l++ {
		for id := p.head[l]; id != logic.InvalidNet; id = p.next[id] {
			p.queued[id] = false
			p.pending--
			p.evals++
			p.set(id, p.site(id, p.eval(p.n.Gate(id))))
		}
		p.head[l] = logic.InvalidNet
	}
	p.lo = len(p.head)
	p.passDone()
}

// undo restores the values changed since the trail was mark long.
func (p *Solver) undo(mark int) {
	for i := len(p.trail) - 1; i >= mark; i-- {
		c := p.trail[i]
		p.vals[c.net] = c.old
	}
	p.trail = p.trail[:mark]
}

// passDone closes an implication pass: a propagation, or the undo that
// pops a decision (see Stats.Implications).
func (p *Solver) passDone() {
	p.implies++
	if p.afterPass != nil {
		p.afterPass()
	}
}

// decide assigns a PI and implies the consequences. Only a frame source
// takes the value; on any other net the assignment has no effect.
func (p *Solver) decide(pi logic.NetID, value bool) {
	p.assign[pi] = fromBool(value)
	if p.n.CombRank(pi) < 0 {
		p.set(pi, p.site(pi, fromBool(value)))
	}
	p.propagate()
}

// eval computes a gate's five-valued output from its inputs.
func (p *Solver) eval(g logic.Gate) Value {
	var v Value
	switch g.Kind {
	case logic.GateBuf:
		v = p.vals[g.In[0]]
	case logic.GateNot:
		v = not(p.vals[g.In[0]])
	case logic.GateAnd, logic.GateNand:
		v = V1
		for _, in := range g.In {
			v = andT[v][p.vals[in]]
		}
		if g.Kind == logic.GateNand {
			v = not(v)
		}
	case logic.GateOr, logic.GateNor:
		v = V0
		for _, in := range g.In {
			v = orT[v][p.vals[in]]
		}
		if g.Kind == logic.GateNor {
			v = not(v)
		}
	case logic.GateXor, logic.GateXnor:
		v = V0
		for _, in := range g.In {
			v = xorT[v][p.vals[in]]
		}
		if g.Kind == logic.GateXnor {
			v = not(v)
		}
	case logic.GateMux2:
		v = muxV(p.vals[g.In[0]], p.vals[g.In[1]], p.vals[g.In[2]])
	default:
		panic(fmt.Sprintf("atpg: unexpected gate kind %v in comb order", g.Kind))
	}
	return v
}

// site applies fault injection: the faulty projection is forced to the
// stuck value while the good projection keeps v's good part.
func (p *Solver) site(net logic.NetID, v Value) Value {
	if !p.siteSet[net] {
		return v
	}
	return compose(v.good(), fromBool(p.sa1))
}

func muxV(sel, a, b Value) Value {
	switch sel {
	case V0:
		return a
	case V1:
		return b
	case VX:
		if a == b && a.known() {
			return a
		}
		return VX
	}
	// sel carries a fault effect: project the two machines separately.
	var g, bad Value
	if sel.good() == V1 {
		g = b.good()
	} else {
		g = a.good()
	}
	if sel.bad() == V1 {
		bad = b.bad()
	} else {
		bad = a.bad()
	}
	if g == VX || bad == VX {
		return VX
	}
	return compose(g, bad)
}

// faultEffects walks the nets that carry a D or D̄. Such a net is a
// site or has an input that carries one, so the walk starts at the
// activated sites and follows fanout through D values only — it never
// leaves the sites' fanout cone. It reports whether a fault effect has
// reached an observation point; if none has, p.front holds the
// D-frontier (gates with an X output and a D input) in CombOrder order.
func (p *Solver) faultEffects() (detected bool) {
	p.epoch++
	if p.epoch == 0 { // wrapped: stamps from 2^32 steps ago would read as current
		clear(p.seen)
		clear(p.dead)
		p.epoch = 1
	}
	p.front = p.front[:0]
	walk := p.walk[:0]
	for _, s := range p.sites {
		if p.vals[s].hasD() && p.seen[s] != p.epoch {
			p.seen[s] = p.epoch
			walk = append(walk, s)
		}
	}
	for len(walk) > 0 {
		net := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		if p.isObs[net] {
			p.walk = walk
			return true
		}
		for _, out := range p.n.Fanout(net) {
			r := p.n.CombRank(out)
			if r < 0 || p.seen[out] == p.epoch {
				continue
			}
			p.seen[out] = p.epoch
			switch v := p.vals[out]; {
			case v == VX:
				p.front = append(p.front, int32(r))
			case v.hasD():
				walk = append(walk, out)
			}
		}
	}
	p.walk = walk
	slices.Sort(p.front)
	return false
}

func (p *Solver) search() Status {
	for {
		if p.faultEffects() {
			return Detected
		}
		if pi, value, ok := p.nextDecision(); ok {
			p.decisions++
			p.stack = append(p.stack, decision{pi: pi, value: value, mark: len(p.trail)})
			p.decide(pi, value)
			continue
		}
		// No progress possible: backtrack.
		for {
			p.bts++
			if p.bts > p.maxBT {
				return Aborted
			}
			if len(p.stack) == 0 {
				return Untestable
			}
			top := &p.stack[len(p.stack)-1]
			if !top.triedBoth {
				top.triedBoth = true
				top.value = !top.value
				p.undo(top.mark)
				p.decide(top.pi, top.value)
				break
			}
			p.assign[top.pi] = VX
			p.undo(top.mark)
			p.stack = p.stack[:len(p.stack)-1]
			p.passDone()
		}
	}
}

// nextDecision picks the next PI assignment: toward extending the
// D-frontier to an observe point, and otherwise — no site carries a D
// yet, or the frontier cannot be advanced while another site of a
// multi-site fault is still X — toward activating the fault. Each
// candidate objective (an X input of a frontier gate, in CombOrder
// order, with the value that lets the fault effect through; then an X
// site) is backtraced in turn, and the first that leads to an
// unassigned PI wins. With none, no further assignment can change a
// frontier gate or a site, and the search must back up.
func (p *Solver) nextDecision() (pi logic.NetID, value, ok bool) {
	for _, r := range p.front {
		g := p.n.Gate(p.n.CombOrder()[r])
		for pin, in := range g.In {
			// An X input with no assignable PI in its cone can never be
			// set.
			if p.vals[in] != VX || !p.reach[in] {
				continue
			}
			want := V0
			switch g.Kind {
			case logic.GateAnd, logic.GateNand:
				want = V1
			case logic.GateMux2:
				// Select whichever data input carries the D.
				if pin == 0 && p.vals[g.In[2]].hasD() {
					want = V1
				}
			}
			if pi, value, ok = p.backtrace(in, want); ok {
				return pi, value, true
			}
		}
	}
	// After injection a site is the stuck value (the good machine
	// agrees with the fault), a D, or X (good machine undetermined):
	// only an X site can still activate.
	for _, s := range p.sites {
		if p.vals[s] != VX {
			continue
		}
		if pi, value, ok = p.backtrace(s, fromBool(!p.sa1)); ok {
			return pi, value, true
		}
	}
	return 0, false, false
}

// backtrace maps an objective to an unassigned PI along a path of X
// values, inverting the target value through inverting gates (through
// XOR and MUX the value is kept, heuristically). A path that ends on a
// source PODEM may not assign is abandoned for the gate's next X input;
// a net with no path at all is stamped dead so the current step does
// not descend into it again.
func (p *Solver) backtrace(net logic.NetID, val Value) (logic.NetID, bool, bool) {
	if p.isPI[net] {
		return net, val == V1, p.assign[net] == VX
	}
	if p.n.CombRank(net) < 0 || p.dead[net] == p.epoch {
		return 0, false, false
	}
	g := p.n.Gate(net)
	switch g.Kind {
	case logic.GateNot, logic.GateNand, logic.GateNor, logic.GateXnor:
		val = not(val)
	}
	for _, in := range g.In {
		if p.vals[in] != VX || !p.reach[in] {
			continue
		}
		if pi, value, ok := p.backtrace(in, val); ok {
			return pi, value, true
		}
	}
	p.dead[net] = p.epoch
	return 0, false, false
}
