package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteBench exports the netlist in the .bench format. Gate kinds the
// format lacks are lowered functionally: Mux2 into sel ? b : a as an
// AND/OR/NOT cone, and constants (when live) into XOR/XNOR self-ties
// off the first primary input. The exported file reimports (ReadBench)
// to a functionally identical circuit. Only the round-trip tests in
// bench_test.go write .bench files.
func WriteBench(w io.Writer, n *Netlist, name string) error {
	// const0/const1 are claimed by NewBuilder in every netlist, so a
	// definition under either name could never re-import.
	names := exportNames(n, "const0", "const1")
	used := make(map[string]bool, n.NumNets())
	for _, nm := range names {
		used[nm] = true
	}
	fresh := func(base string) string {
		nm := base
		for sfx := 2; used[nm]; sfx++ {
			nm = fmt.Sprintf("%s_%d", base, sfx)
		}
		used[nm] = true
		return nm
	}

	// Constants only need a definition when something reads them.
	constRead := make(map[NetID]bool)
	for id := 0; id < n.NumNets(); id++ {
		for _, in := range n.Gate(NetID(id)).In {
			if k := n.Gate(in).Kind; k == GateConst0 || k == GateConst1 {
				constRead[in] = true
			}
		}
	}
	for _, out := range n.Outputs() {
		if k := n.Gate(out).Kind; k == GateConst0 || k == GateConst1 {
			constRead[out] = true
		}
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", sanitizeIdent(name))
	fmt.Fprintf(bw, "# exported by logic.WriteBench: %d inputs, %d outputs, %d DFFs\n",
		len(n.Inputs()), len(n.Outputs()), len(n.DFFs()))
	for _, in := range n.Inputs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", names[in])
	}
	for _, out := range n.Outputs() {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", names[out])
	}

	inList := func(g Gate) string {
		parts := make([]string, len(g.In))
		for i, in := range g.In {
			parts[i] = names[in]
		}
		return strings.Join(parts, ", ")
	}
	for id := 0; id < n.NumNets(); id++ {
		g := n.Gate(NetID(id))
		lhs := names[id]
		switch g.Kind {
		case GateInput:
			continue
		case GateConst0, GateConst1:
			if !constRead[NetID(id)] {
				continue
			}
			if len(n.Inputs()) == 0 {
				return fmt.Errorf("logic: WriteBench: live constant %s but no primary input to tie it to", lhs)
			}
			tie := names[n.Inputs()[0]]
			if g.Kind == GateConst0 {
				fmt.Fprintf(bw, "%s = XOR(%s, %s)\n", lhs, tie, tie)
			} else {
				fmt.Fprintf(bw, "%s = XNOR(%s, %s)\n", lhs, tie, tie)
			}
		case GateBuf:
			fmt.Fprintf(bw, "%s = BUFF(%s)\n", lhs, names[g.In[0]])
		case GateNot:
			fmt.Fprintf(bw, "%s = NOT(%s)\n", lhs, names[g.In[0]])
		case GateAnd:
			fmt.Fprintf(bw, "%s = AND(%s)\n", lhs, inList(g))
		case GateOr:
			fmt.Fprintf(bw, "%s = OR(%s)\n", lhs, inList(g))
		case GateNand:
			fmt.Fprintf(bw, "%s = NAND(%s)\n", lhs, inList(g))
		case GateNor:
			fmt.Fprintf(bw, "%s = NOR(%s)\n", lhs, inList(g))
		case GateXor:
			fmt.Fprintf(bw, "%s = XOR(%s)\n", lhs, inList(g))
		case GateXnor:
			fmt.Fprintf(bw, "%s = XNOR(%s)\n", lhs, inList(g))
		case GateDFF:
			fmt.Fprintf(bw, "%s = DFF(%s)\n", lhs, names[g.In[0]])
		case GateMux2:
			// sel ? c : a  →  (¬sel ∧ a) ∨ (sel ∧ c)
			sel, a, c := names[g.In[0]], names[g.In[1]], names[g.In[2]]
			sn := fresh(lhs + "_sn")
			m0 := fresh(lhs + "_m0")
			m1 := fresh(lhs + "_m1")
			fmt.Fprintf(bw, "%s = NOT(%s)\n", sn, sel)
			fmt.Fprintf(bw, "%s = AND(%s, %s)\n", m0, sn, a)
			fmt.Fprintf(bw, "%s = AND(%s, %s)\n", m1, sel, c)
			fmt.Fprintf(bw, "%s = OR(%s, %s)\n", lhs, m0, m1)
		default:
			return fmt.Errorf("logic: WriteBench: unknown gate kind %v", g.Kind)
		}
	}
	return bw.Flush()
}
