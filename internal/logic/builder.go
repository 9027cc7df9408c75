package logic

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Builder constructs a Netlist incrementally. It is not safe for
// concurrent use. All gate-creation methods return the NetID of the
// driven net.
//
// Builders support hierarchical scopes: nets created between PushScope
// and PopScope are recorded under the scope's full dotted path, which the
// fault simulator uses to attribute faults to datapath components.
type Builder struct {
	gates []Gate
	names []string

	inputs  []NetID
	outputs []NetID
	dffs    []NetID

	byName map[string]NetID

	scope       []string
	regions     map[string][]NetID
	regionOrder []string

	deferred []NetID // unresolved DeferredBuf nets

	const0 NetID
	const1 NetID

	err error
}

// NewBuilder returns an empty Builder with shared constant nets
// pre-created.
func NewBuilder() *Builder {
	b := &Builder{
		byName:  make(map[string]NetID),
		regions: make(map[string][]NetID),
		const0:  InvalidNet,
		const1:  InvalidNet,
	}
	b.const0 = b.newGate(GateConst0, nil, "const0")
	b.const1 = b.newGate(GateConst1, nil, "const1")
	return b
}

func (b *Builder) fail(format string, args ...any) NetID {
	if b.err == nil {
		b.err = fmt.Errorf("logic: "+format, args...)
	}
	return InvalidNet
}

func (b *Builder) newGate(kind GateKind, in []NetID, name string) NetID {
	id := NetID(len(b.gates))
	for _, i := range in {
		if i < 0 || int(i) >= len(b.gates) {
			return b.fail("gate %s %q reads invalid net %d", kind, name, i)
		}
	}
	if a := kind.arity(); a >= 0 && len(in) != a {
		return b.fail("gate %s %q needs %d inputs, got %d", kind, name, a, len(in))
	}
	if a := kind.arity(); a == -1 && len(in) < 2 {
		return b.fail("gate %s %q needs at least 2 inputs, got %d", kind, name, len(in))
	}
	full := b.qualify(name)
	if full != "" {
		if _, dup := b.byName[full]; dup {
			return b.fail("duplicate net name %q", full)
		}
		b.byName[full] = id
	}
	b.gates = append(b.gates, Gate{Kind: kind, In: in, Out: id})
	b.names = append(b.names, full)
	for i := range b.scope {
		key := strings.Join(b.scope[:i+1], ".")
		b.regions[key] = append(b.regions[key], id)
	}
	return id
}

func (b *Builder) qualify(name string) string {
	if name == "" {
		return ""
	}
	if len(b.scope) == 0 {
		return name
	}
	return strings.Join(b.scope, ".") + "." + name
}

// PushScope enters a named hierarchical scope. Scopes nest; the full
// dotted path identifies the region.
func (b *Builder) PushScope(name string) {
	b.scope = append(b.scope, name)
	key := strings.Join(b.scope, ".")
	if _, ok := b.regions[key]; !ok {
		b.regions[key] = nil
		b.regionOrder = append(b.regionOrder, key)
	}
}

// PopScope leaves the innermost scope.
func (b *Builder) PopScope() {
	if len(b.scope) == 0 {
		b.fail("PopScope with empty scope stack")
		return
	}
	b.scope = b.scope[:len(b.scope)-1]
}

// Scoped runs fn inside the named scope.
func (b *Builder) Scoped(name string, fn func()) {
	b.PushScope(name)
	fn()
	b.PopScope()
}

// DeferredBuf creates a buffer whose input is not yet known, enabling
// sequential feedback (a DFF whose next-state logic reads its own Q).
// The input must be supplied with ResolveBuf before Build, which fails
// on unresolved deferred buffers.
func (b *Builder) DeferredBuf() NetID {
	id := b.newGate(GateBuf, []NetID{b.const0}, "")
	if id != InvalidNet {
		b.deferred = append(b.deferred, id)
	}
	return id
}

// ResolveBuf supplies the input of a DeferredBuf.
func (b *Builder) ResolveBuf(buf, in NetID) {
	if buf < 0 || int(buf) >= len(b.gates) || b.gates[buf].Kind != GateBuf {
		b.fail("ResolveBuf: net %d is not a buffer", buf)
		return
	}
	idx := -1
	for i, d := range b.deferred {
		if d == buf {
			idx = i
			break
		}
	}
	if idx < 0 {
		b.fail("ResolveBuf: net %d is not an unresolved deferred buffer", buf)
		return
	}
	if in < 0 || int(in) >= len(b.gates) {
		b.fail("ResolveBuf: invalid input net %d", in)
		return
	}
	b.gates[buf].In[0] = in
	b.deferred = append(b.deferred[:idx], b.deferred[idx+1:]...)
}

// Const returns the shared constant net for v.
func (b *Builder) Const(v bool) NetID {
	if v {
		return b.const1
	}
	return b.const0
}

// Input declares a named primary input and returns its net.
func (b *Builder) Input(name string) NetID {
	id := b.newGate(GateInput, nil, name)
	if id != InvalidNet {
		b.inputs = append(b.inputs, id)
	}
	return id
}

// Buf inserts a buffer.
func (b *Builder) Buf(a NetID, name string) NetID { return b.newGate(GateBuf, []NetID{a}, name) }

// Not inserts an inverter.
func (b *Builder) Not(a NetID) NetID { return b.newGate(GateNot, []NetID{a}, "") }

// And inserts an AND gate over two or more inputs.
func (b *Builder) And(in ...NetID) NetID { return b.newGate(GateAnd, in, "") }

// Or inserts an OR gate over two or more inputs.
func (b *Builder) Or(in ...NetID) NetID { return b.newGate(GateOr, in, "") }

// Nand inserts a NAND gate over two or more inputs.
func (b *Builder) Nand(in ...NetID) NetID { return b.newGate(GateNand, in, "") }

// Nor inserts a NOR gate over two or more inputs.
func (b *Builder) Nor(in ...NetID) NetID { return b.newGate(GateNor, in, "") }

// Xor inserts an XOR gate over two or more inputs (odd parity).
func (b *Builder) Xor(in ...NetID) NetID { return b.newGate(GateXor, in, "") }

// Xnor inserts an XNOR gate over two or more inputs (even parity).
func (b *Builder) Xnor(in ...NetID) NetID { return b.newGate(GateXnor, in, "") }

// Mux2 inserts a 2:1 multiplexer returning a when sel=0 and bb when sel=1.
func (b *Builder) Mux2(sel, a, bb NetID) NetID {
	return b.newGate(GateMux2, []NetID{sel, a, bb}, "")
}

// DFF inserts a named D flip-flop and returns its Q net. State resets to 0.
func (b *Builder) DFF(d NetID, name string) NetID {
	id := b.newGate(GateDFF, []NetID{d}, name)
	if id != InvalidNet {
		b.dffs = append(b.dffs, id)
	}
	return id
}

// MarkOutput declares net id as a primary output under the given name.
// The same net may be marked only once; marking creates an alias buffer
// so outputs always have stable, unique names.
func (b *Builder) MarkOutput(id NetID, name string) NetID {
	out := b.Buf(id, name)
	if out != InvalidNet {
		b.outputs = append(b.outputs, out)
	}
	return out
}

// Name assigns a name to an existing unnamed net (used to label
// component boundary signals for metrics and fault reports).
func (b *Builder) Name(id NetID, name string) {
	if id < 0 || int(id) >= len(b.gates) {
		b.fail("Name: invalid net %d", id)
		return
	}
	full := b.qualify(name)
	if full == "" {
		return
	}
	if _, dup := b.byName[full]; dup {
		b.fail("duplicate net name %q", full)
		return
	}
	if b.names[id] == "" {
		b.names[id] = full
	}
	b.byName[full] = id
}

// BuildOptions control Netlist finalization.
type BuildOptions struct {
	// InsertFanoutBranches adds a buffer on every fanout branch of each
	// multi-fanout net so that every stuck-at fault site (stems and
	// branches alike) is a distinct net. Required for full pin-accurate
	// fault lists; adds roughly one buffer per extra fanout.
	InsertFanoutBranches bool
}

// Build finalizes the netlist: optionally inserts fanout-branch buffers,
// verifies the combinational frame is acyclic and levelizes it.
func (b *Builder) Build(opts BuildOptions) (*Netlist, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.deferred) > 0 {
		return nil, fmt.Errorf("logic: %d unresolved deferred buffer(s) at Build", len(b.deferred))
	}
	if opts.InsertFanoutBranches {
		b.insertBranches()
		if b.err != nil {
			return nil, b.err
		}
	}
	n := &Netlist{
		gates:       b.gates,
		names:       b.names,
		inputs:      b.inputs,
		outputs:     b.outputs,
		dffs:        b.dffs,
		byName:      b.byName,
		regions:     b.regions,
		regionOrder: b.regionOrder,
	}
	if err := n.levelize(); err != nil {
		return nil, err
	}
	n.buildFanout()
	return n, nil
}

// insertBranches gives every fanout branch of a multi-fanout net its own
// buffer. Constants and the branch buffers themselves are exempt.
func (b *Builder) insertBranches() {
	fanoutCount := make([]int, len(b.gates))
	for gi := range b.gates {
		for _, in := range b.gates[gi].In {
			fanoutCount[in]++
		}
	}
	numOriginal := len(b.gates)
	branchSeq := make([]int, numOriginal)
	for gi := 0; gi < numOriginal; gi++ {
		g := &b.gates[gi]
		for pi, in := range g.In {
			if in == b.const0 || in == b.const1 {
				continue
			}
			if fanoutCount[in] <= 1 {
				continue
			}
			branchSeq[in]++
			name := ""
			if bn := b.names[in]; bn != "" {
				name = fmt.Sprintf("%s#br%d", bn, branchSeq[in])
			}
			// Create the branch buffer outside any scope prefix the
			// original net might not belong to: attribute it to the same
			// regions as the source net by direct insertion.
			id := NetID(len(b.gates))
			b.gates = append(b.gates, Gate{Kind: GateBuf, In: []NetID{in}, Out: id})
			b.names = append(b.names, name)
			if name != "" {
				b.byName[name] = id
			}
			for _, region := range b.regionsOf(in) {
				b.regions[region] = append(b.regions[region], id)
			}
			g.In[pi] = id
		}
	}
}

// regionsOf returns the scope paths containing net id. Linear scan over
// regions is acceptable because insertBranches runs once at build time.
func (b *Builder) regionsOf(id NetID) []string {
	var out []string
	for _, key := range b.regionOrder {
		nets := b.regions[key]
		// regions store nets in creation order; binary search applies.
		i := sort.Search(len(nets), func(i int) bool { return nets[i] >= id })
		if i < len(nets) && nets[i] == id {
			out = append(out, key)
		}
	}
	return out
}

var errCombLoop = errors.New("logic: combinational loop detected")

// levelize topologically orders the combinational frame and records
// each net's rank in that order and its level. DFF Q nets, primary
// inputs and constants are sources; DFF D pins are sinks. The queue is
// first in, first out, so the order runs level by level: a gate joins
// it when the last of its inputs leaves, and by induction that input is
// its deepest, one level below the gate.
func (n *Netlist) levelize() error {
	indeg := make([]int32, len(n.gates))
	for i := range n.gates {
		g := &n.gates[i]
		switch g.Kind {
		case GateInput, GateConst0, GateConst1, GateDFF:
			// Sources: DFF output is available at frame start. Its D input
			// is consumed after the frame settles, so a DFF never
			// contributes to combinational ordering.
			continue
		}
		indeg[g.Out] = int32(0)
		for _, in := range g.In {
			switch n.gates[in].Kind {
			case GateInput, GateConst0, GateConst1, GateDFF:
			default:
				indeg[g.Out]++
			}
		}
	}
	queue := make([]NetID, 0, len(n.gates))
	for i := range n.gates {
		g := &n.gates[i]
		switch g.Kind {
		case GateInput, GateConst0, GateConst1, GateDFF:
			continue
		}
		if indeg[g.Out] == 0 {
			queue = append(queue, g.Out)
		}
	}
	// Build reverse adjacency once (combinational readers per net).
	readers := make([][]NetID, len(n.gates))
	for i := range n.gates {
		g := &n.gates[i]
		if g.Kind == GateInput || g.Kind == GateConst0 || g.Kind == GateConst1 || g.Kind == GateDFF {
			continue
		}
		for _, in := range g.In {
			readers[in] = append(readers[in], g.Out)
		}
	}
	order := make([]NetID, 0, len(n.gates))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, r := range readers[id] {
			indeg[r]--
			if indeg[r] == 0 {
				queue = append(queue, r)
			}
		}
	}
	want := 0
	for i := range n.gates {
		switch n.gates[i].Kind {
		case GateInput, GateConst0, GateConst1, GateDFF:
		default:
			want++
		}
	}
	if len(order) != want {
		return fmt.Errorf("%w: %d of %d combinational gates ordered", errCombLoop, len(order), want)
	}
	n.order = order
	n.level = make([]int32, len(n.gates))
	n.rank = make([]int32, len(n.gates))
	for i := range n.rank {
		n.rank[i] = -1
	}
	for r, id := range order {
		n.rank[id] = int32(r)
		for _, in := range n.gates[id].In {
			n.level[id] = max(n.level[id], n.level[in]+1)
		}
	}
	return nil
}

func (n *Netlist) buildFanout() {
	n.fanout = make([][]NetID, len(n.gates))
	for i := range n.gates {
		g := &n.gates[i]
		for _, in := range g.In {
			n.fanout[in] = append(n.fanout[in], g.Out)
		}
	}
}
