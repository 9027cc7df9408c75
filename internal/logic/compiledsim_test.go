package logic_test

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// TestCompiledSimLanesMatchScalar pins Compile and CompiledSim to the
// scalar Simulator on random sequential netlists: lane 0 runs fault-free
// and each other lane carries one stuck-at fault on any net (flip-flop Q
// nets and primary inputs included), and every net of every lane must
// equal a scalar Simulator carrying the same fault, cycle by cycle.
func TestCompiledSimLanesMatchScalar(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed*7 + 1))
		n, err := logictest.RandomNetlist(rng, seed%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		w := logic.NewCompiledSim(logic.Compile(n))
		scalar := []*logictest.Simulator{logictest.NewSimulator(n)}
		for lane := uint(1); lane < 64; lane++ {
			id := logic.NetID(rng.Intn(n.NumNets()))
			sa1 := rng.Intn(2) == 1
			w.Inject(id, sa1, lane)
			s := logictest.NewSimulator(n)
			s.InjectFault(id, sa1)
			scalar = append(scalar, s)
		}
		w.ApplyInjectionsToValues()
		for cyc := 0; cyc < 40; cyc++ {
			v := rng.Uint64()
			for bi, in := range n.Inputs() {
				w.SetInput(in, v>>uint(bi)&1 == 1)
				for _, s := range scalar {
					s.SetInput(in, v>>uint(bi)&1 == 1)
				}
			}
			w.Settle()
			for lane, s := range scalar {
				s.Settle()
				for id := logic.NetID(0); int(id) < n.NumNets(); id++ {
					if got := w.Word(id)>>uint(lane)&1 == 1; got != s.Value(id) {
						t.Fatalf("seed %d cycle %d lane %d net %d (%s): compiled %v, scalar %v",
							seed, cyc, lane, id, n.Gate(id).Kind, got, s.Value(id))
					}
				}
			}
			w.ClockAfterSettle()
			for _, s := range scalar {
				s.ClockAfterSettle()
			}
		}
	}
}
