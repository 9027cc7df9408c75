package fault

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// serialTransitionDetect is the scalar reference for the
// one-cycle-late-edge model: the faulty machine runs with its own state;
// each cycle it first settles freely to see whether its driver launches
// a slow-direction edge at the site, then re-settles with the site held
// at the previous driven value when it does, and clocks from that.
func serialTransitionDetect(n *logic.Netlist, f TransitionFault, vecs VectorSeq) int {
	good := logictest.NewSimulator(n)
	bad := logictest.NewSimulator(n)
	inputs := n.Inputs()
	prev := false
	havePrev := false
	detected := -1
	for cyc := 0; cyc < vecs.Len(); cyc++ {
		v := vecs.At(cyc)
		for b, in := range inputs {
			good.SetInput(in, v>>uint(b)&1 == 1)
			bad.SetInput(in, v>>uint(b)&1 == 1)
		}
		good.Settle()
		bad.ClearFault()
		bad.Settle()
		driven := bad.Value(f.Site)
		if havePrev && driven != prev && driven == f.SlowToRise {
			bad.InjectFault(f.Site, prev)
			bad.Settle()
		}
		for _, o := range n.Outputs() {
			if good.Value(o) != bad.Value(o) {
				if detected < 0 {
					detected = cyc
				}
			}
		}
		if detected >= 0 {
			return detected
		}
		prev = driven
		havePrev = true
		good.ClockAfterSettle()
		bad.ClockAfterSettle()
	}
	return -1
}

func TestTransitionSimMatchesSerial(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *logic.Netlist{
		"adder": buildAdder,
		"seq":   buildSeq,
	} {
		n := build(t)
		bits := len(n.Inputs())
		vecs := randomVectors(90, bits, 101)
		faults := AllTransitionFaults(n)
		res, err := SimulateTransitions(n, vecs, faults)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range faults {
			want := serialTransitionDetect(n, f, vecs)
			if got := int(res.DetectedAt[i]); got != want {
				t.Errorf("%s fault %v: parallel=%d serial=%d", name, f, got, want)
			}
		}
	}
}

func TestTransitionNeedsTransition(t *testing.T) {
	// A constant-input stream never launches: zero coverage.
	n := buildAdder(t)
	vecs := make(Vectors, 50) // all-zero inputs
	res, err := SimulateTransitions(n, vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() != 0 {
		t.Fatalf("constant stream detected %d transition faults", res.Detected())
	}
}

func TestTransitionCoverageBelowStuckAt(t *testing.T) {
	// TDF detection requires launch + capture, so coverage at equal
	// vectors is at most the stuck-at coverage (each TDF detection
	// implies the corresponding stuck-at detection at that cycle).
	n := buildSeq(t)
	vecs := randomVectors(200, 4, 55)
	tdf, err := SimulateTransitions(n, vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Simulate(n, vecs, SimOptions{Faults: AllFaults(n)})
	if err != nil {
		t.Fatal(err)
	}
	if tdf.Coverage() > sa.Coverage()+1e-9 {
		t.Fatalf("TDF coverage %.3f exceeds stuck-at %.3f", tdf.Coverage(), sa.Coverage())
	}
	if tdf.Detected() == 0 {
		t.Fatal("no transition faults detected by 200 random vectors")
	}
}
