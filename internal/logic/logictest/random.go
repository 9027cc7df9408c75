// Package logictest holds what the differential tests of the packages
// built on logic share: a random netlist generator and the scalar
// Simulator they hold every production simulator to.
package logictest

import (
	"math/rand"

	"repro/internal/logic"
)

// RandomNetlist builds a random sequential netlist: 2–6 primary inputs,
// 1–4 flip-flops (D pins resolved to random nets at the end, so state
// feedback crosses the whole circuit), 5–44 random combinational gates
// over random fan-in, and 1–3 primary outputs over random nets. The
// result has variadic chains, MUXes, DFF-Q and PI fault sites, and
// reconvergence. The netlist is a function of rng's state alone.
func RandomNetlist(rng *rand.Rand, fanoutBranches bool) (*logic.Netlist, error) {
	b := logic.NewBuilder()
	nIn := 2 + rng.Intn(5)
	nDFF := 1 + rng.Intn(4)
	nGate := 5 + rng.Intn(40)
	nOut := 1 + rng.Intn(3)

	var nets []logic.NetID
	for i := 0; i < nIn; i++ {
		nets = append(nets, b.Input(string(rune('a'+i))))
	}
	type pendingDFF struct{ d, q logic.NetID }
	var dffs []pendingDFF
	for i := 0; i < nDFF; i++ {
		d := b.DeferredBuf()
		q := b.DFF(d, "")
		dffs = append(dffs, pendingDFF{d, q})
		nets = append(nets, q)
	}
	pick := func() logic.NetID { return nets[rng.Intn(len(nets))] }
	for i := 0; i < nGate; i++ {
		var id logic.NetID
		switch rng.Intn(9) {
		case 0:
			id = b.Not(pick())
		case 1:
			id = b.Mux2(pick(), pick(), pick())
		case 2:
			id = b.Xor(pick(), pick())
		case 3:
			id = b.Xnor(pick(), pick())
		default:
			in := make([]logic.NetID, 2+rng.Intn(3))
			for k := range in {
				in[k] = pick()
			}
			switch rng.Intn(4) {
			case 0:
				id = b.And(in...)
			case 1:
				id = b.Or(in...)
			case 2:
				id = b.Nand(in...)
			default:
				id = b.Nor(in...)
			}
		}
		nets = append(nets, id)
	}
	for _, p := range dffs {
		b.ResolveBuf(p.d, pick())
	}
	for i := 0; i < nOut; i++ {
		b.MarkOutput(pick(), string(rune('x'+i)))
	}
	return b.Build(logic.BuildOptions{InsertFanoutBranches: fanoutBranches})
}
