package fault

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

func TestDiagnoseFindsInjectedFault(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(120, 4, 77)
	faults, _ := Collapse(n, AllFaults(n))
	rng := rand.New(rand.NewSource(5))
	tested := 0
	for trial := 0; trial < 20 && tested < 8; trial++ {
		truth := faults[rng.Intn(len(faults))]
		observed := FaultTrace(n, vecs, truth)
		good := ExpectedOutputs(n, vecs)
		same := true
		for i := range observed {
			if observed[i] != good[i] {
				same = false
				break
			}
		}
		if same {
			continue // fault not excited by this test; nothing to diagnose
		}
		tested++
		cands, err := DiagnoseOpts(n, vecs, observed, faults, DiagnoseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatalf("no candidates for %v", truth)
		}
		// The true fault (or an equivalent with identical behavior) must
		// rank first with an exact match.
		if !cands[0].ExactMatch {
			t.Fatalf("top candidate for %v is not exact: %+v", truth, cands[0])
		}
		found := false
		for _, c := range cands {
			if c.Fault == truth && c.ExactMatch {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("true fault %v missing from exact candidates", truth)
		}
	}
	if tested < 3 {
		t.Fatalf("only %d usable trials", tested)
	}
}

func TestDiagnosePassingMachine(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(50, 4, 3)
	observed := ExpectedOutputs(n, vecs)
	cands, err := DiagnoseOpts(n, vecs, observed, nil, DiagnoseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cands != nil {
		t.Fatalf("passing machine produced candidates: %v", cands)
	}
}

func TestExpectedOutputs(t *testing.T) {
	// Shift register: expected output lags input by its depth.
	b := logic.NewBuilder()
	din := b.Input("din")
	q := b.DFF(din, "q0")
	q = b.DFF(q, "q1")
	b.MarkOutput(q, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exp := ExpectedOutputs(n, Vectors{1, 0, 1, 1, 0, 0})
	want := []uint64{0, 0, 1, 0, 1, 1}
	for i := range exp {
		if exp[i] != want[i] {
			t.Fatalf("cycle %d: expected %d want %d (all %v)", i, exp[i], want[i], exp)
		}
	}
}

// TestLanesMatchSimulator holds runLanes, the loop behind
// ExpectedOutputs, FaultTrace, diagnosis's trace matching, path delay
// and MISR signatures, to the scalar oracle: on the adder and 40 random
// sequential netlists, lane 0 must match a fault-free
// logictest.Simulator and each of up to 63 faulty lanes a Simulator
// carrying that lane's fault, output by output and cycle by cycle.
// ExpectedOutputs and FaultTrace must equal the oracle's traces.
func TestLanesMatchSimulator(t *testing.T) {
	nets := []*logic.Netlist{buildAdder(t)}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		n, err := logictest.RandomNetlist(rng, i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	for ni, n := range nets {
		vecs := randomVectors(40, len(n.Inputs()), int64(ni+9))
		faults := AllFaults(n)
		rng.Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
		faults = faults[:min(63, len(faults))]
		want := []ObservedTrace{scalarTrace(n, vecs, nil)}
		for i := range faults {
			want = append(want, scalarTrace(n, vecs, &faults[i]))
		}
		runLanes(n, vecs, faults, func(cyc int, s *logic.CompiledSim) bool {
			for lane, trace := range want {
				var word uint64
				for b, out := range n.Outputs() {
					word |= (s.Word(out) >> uint(lane) & 1) << uint(b)
				}
				if word != trace[cyc] {
					t.Fatalf("netlist %d cycle %d lane %d: outputs %x, scalar %x", ni, cyc, lane, word, trace[cyc])
				}
			}
			return true
		})
		if got := ExpectedOutputs(n, vecs); !slices.Equal(got, want[0]) {
			t.Fatalf("netlist %d: ExpectedOutputs %x, scalar %x", ni, got, want[0])
		}
		if got := FaultTrace(n, vecs, faults[0]); !slices.Equal(got, want[1]) {
			t.Fatalf("netlist %d: FaultTrace(%v) %x, scalar %x", ni, faults[0], got, want[1])
		}
	}
}

// scalarTrace is the oracle's output trace of the machine carrying f,
// or of the fault-free one when f is nil.
func scalarTrace(n *logic.Netlist, vecs VectorSeq, f *Fault) ObservedTrace {
	s := logictest.NewSimulator(n)
	if f != nil {
		s.InjectFault(f.Site, f.SA1)
	}
	trace := make(ObservedTrace, vecs.Len())
	for cyc := range trace {
		v := vecs.At(cyc)
		for b, in := range n.Inputs() {
			s.SetInput(in, v>>uint(b)&1 == 1)
		}
		s.Settle()
		trace[cyc] = s.BusValue(n.Outputs())
		s.Step()
	}
	return trace
}
