package atpg

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/synth"
)

// bruteTestable exhaustively checks whether any input assignment detects
// the fault on a combinational circuit (the oracle PODEM is tested
// against). Only feasible for small input counts.
func bruteTestable(n *logic.Netlist, f fault.Fault) (bool, uint64) {
	good := logictest.NewSimulator(n)
	bad := logictest.NewSimulator(n)
	bad.InjectFault(f.Site, f.SA1)
	ins := n.Inputs()
	for v := uint64(0); v < 1<<uint(len(ins)); v++ {
		for i, in := range ins {
			good.SetInput(in, v>>uint(i)&1 == 1)
			bad.SetInput(in, v>>uint(i)&1 == 1)
		}
		good.Settle()
		bad.Settle()
		for _, o := range n.Outputs() {
			if good.Value(o) != bad.Value(o) {
				return true, v
			}
		}
	}
	return false, 0
}

// verifyPattern checks that the PODEM assignment really detects the
// fault (don't-care inputs tried as 0).
func verifyPattern(t *testing.T, n *logic.Netlist, f fault.Fault, assign map[logic.NetID]bool) {
	t.Helper()
	good := logictest.NewSimulator(n)
	bad := logictest.NewSimulator(n)
	bad.InjectFault(f.Site, f.SA1)
	for _, in := range n.Inputs() {
		v := assign[in]
		good.SetInput(in, v)
		bad.SetInput(in, v)
	}
	good.Settle()
	bad.Settle()
	for _, o := range n.Outputs() {
		if good.Value(o) != bad.Value(o) {
			return
		}
	}
	t.Fatalf("PODEM pattern %v does not detect %v", assign, f)
}

func buildAdder(t *testing.T) *logic.Netlist {
	t.Helper()
	b := logic.NewBuilder()
	a := b.InputBus("a", 4)
	x := b.InputBus("x", 4)
	cin := b.Input("cin")
	sum, cout := synth.Adder(b, a, x, cin)
	b.MarkOutputBus(sum, "sum")
	b.MarkOutput(cout, "cout")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPODEMAgainstBruteForceAdder(t *testing.T) {
	n := buildAdder(t)
	for _, f := range fault.AllFaults(n) {
		res := Generate(n, f, Options{MaxBacktracks: 5000})
		want, _ := bruteTestable(n, f)
		switch res.Status {
		case Detected:
			if !want {
				t.Fatalf("fault %v: PODEM claims detected, brute force says untestable", f)
			}
			verifyPattern(t, n, f, res.Assignment)
		case Untestable:
			if want {
				t.Fatalf("fault %v: PODEM claims untestable, brute force found a test", f)
			}
		case Aborted:
			t.Logf("fault %v aborted after %d backtracks", f, res.Stats.Backtracks)
		}
	}
}

func TestPODEMStatsNonZero(t *testing.T) {
	n := buildAdder(t)
	var agg Stats
	detected := 0
	for _, f := range fault.AllFaults(n) {
		res := Generate(n, f, Options{MaxBacktracks: 5000})
		if res.Stats.Implications == 0 {
			t.Fatalf("fault %v: zero implications (imply always runs at least once)", f)
		}
		if res.Status == Detected {
			detected++
		}
		agg.Merge(res.Stats)
	}
	if detected == 0 {
		t.Fatal("fixture detects nothing")
	}
	// Across the whole campaign the search cannot be free: finding
	// tests requires decisions, and the adder has redundancy-free cones
	// deep enough that some exploration backtracks.
	if agg.Decisions == 0 {
		t.Error("campaign made zero decisions")
	}
	if agg.Backtracks == 0 {
		t.Error("campaign made zero backtracks")
	}
	if agg.Implications <= agg.Decisions {
		t.Errorf("implications (%d) must exceed decisions (%d): one per decision plus the initial pass",
			agg.Implications, agg.Decisions)
	}
	if agg.GateEvals == 0 {
		t.Error("campaign evaluated zero gates")
	}
	if agg.Aborts != 0 {
		t.Errorf("adder campaign aborted %d runs at 5000 backtracks", agg.Aborts)
	}

	// A starved backtrack budget must surface as Stats.Aborts.
	forced := Generate(n, fault.Fault{Site: n.Outputs()[0], SA1: true}, Options{MaxBacktracks: 1})
	if forced.Status == Aborted && forced.Stats.Aborts != 1 {
		t.Errorf("aborted run has Stats.Aborts = %d", forced.Stats.Aborts)
	}
}

func TestPODEMRedundantFault(t *testing.T) {
	// y = AND(x, NOT(x)) is constantly 0: the AND output sa0 is
	// undetectable.
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.And(x, b.Not(x))
	b.MarkOutput(y, "y")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Generate(n, fault.Fault{Site: y, SA1: false}, Options{})
	if res.Status != Untestable {
		t.Fatalf("redundant fault classified %v", res.Status)
	}
	// ...while sa1 on the same net is detectable.
	res = Generate(n, fault.Fault{Site: y, SA1: true}, Options{})
	if res.Status != Detected {
		t.Fatalf("sa1 classified %v", res.Status)
	}
}

func TestPODEMWithConstraints(t *testing.T) {
	// A 2:1 mux: with sel fixed to 0, faults observable only through the
	// b-input path become untestable.
	b := logic.NewBuilder()
	sel := b.Input("sel")
	av := b.Input("a")
	bv := b.Input("b")
	bBuf := b.Buf(bv, "bpath")
	y := b.Mux2(sel, av, bBuf)
	b.MarkOutput(y, "y")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Site: bBuf, SA1: true}
	free := Generate(n, f, Options{})
	if free.Status != Detected {
		t.Fatalf("unconstrained: %v", free.Status)
	}
	constrained := Generate(n, f, Options{Fixed: map[logic.NetID]bool{sel: false}})
	if constrained.Status != Untestable {
		t.Fatalf("constrained sel=0: %v, want untestable", constrained.Status)
	}
}

func TestPODEMRestrictedPIs(t *testing.T) {
	// Only the a-side inputs may be assigned; a fault needing the b-side
	// becomes untestable.
	b := logic.NewBuilder()
	av := b.Input("a")
	bv := b.Input("b")
	y := b.And(av, bv)
	b.MarkOutput(y, "y")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Site: av, SA1: false}
	res := Generate(n, f, Options{PIs: []logic.NetID{av}})
	// Detecting a/sa0 needs b=1, which cannot be assigned: untestable.
	if res.Status != Untestable {
		t.Fatalf("restricted PIs: %v, want untestable", res.Status)
	}
}

// buildShifter builds the standalone barrel shifter of the Section 3.4
// constraint study and returns it with its mode bits and collapsed
// fault list.
func buildShifter(t testing.TB) (*logic.Netlist, logic.Bus, []fault.Fault) {
	t.Helper()
	b := logic.NewBuilder()
	data := b.InputBus("d", 18)
	amt := b.InputBus("amt", 4)
	mode := b.InputBus("mode", 2)
	out := synth.BarrelShifter(b, data, amt, mode)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.Collapse(n, fault.AllFaults(n))
	return n, mode, faults
}

func TestShifterConstraintShape(t *testing.T) {
	// The paper's Section 3.4 observation, reproduced in miniature: with
	// mode restricted away from "variable" (01), shifter fault coverage
	// collapses; banning left1/right1 barely matters.
	n, mode, faults := buildShifter(t)
	// Sample the fault list to keep the test quick; the experiments
	// harness runs the full-size study (E6).
	sample := faults
	if len(sample) > 120 {
		step := len(sample) / 120
		var s []fault.Fault
		for i := 0; i < len(sample); i += step {
			s = append(s, sample[i])
		}
		sample = s
	}
	countTestable := func(allowedModes []uint64) int {
		testable := 0
		for _, f := range sample {
			ok := false
			for _, m := range allowedModes {
				fixed := map[logic.NetID]bool{
					mode[0]: m&1 == 1,
					mode[1]: m&2 == 2,
				}
				res := Generate(n, f, Options{Fixed: fixed, MaxBacktracks: 600})
				if res.Status == Detected {
					ok = true
					break
				}
			}
			if ok {
				testable++
			}
		}
		return testable
	}
	all := countTestable([]uint64{0, 1, 2, 3})
	no01 := countTestable([]uint64{0, 2, 3})
	no10 := countTestable([]uint64{0, 1, 3})
	t.Logf("testable: all-modes=%d ban-variable=%d ban-left1=%d of %d", all, no01, no10, len(sample))
	if float64(no01) > 0.6*float64(all) {
		t.Errorf("banning variable mode should collapse coverage: %d vs %d", no01, all)
	}
	if float64(no10) < 0.9*float64(all) {
		t.Errorf("banning left1 should barely matter: %d vs %d", no10, all)
	}
}

func TestUnrollShiftRegister(t *testing.T) {
	// din -> q0 -> q1 -> out: a fault on q0 needs 2 frames to reach the
	// output; 1 frame must fail, 3 frames must succeed.
	b := logic.NewBuilder()
	din := b.Input("din")
	q0 := b.DFF(din, "q0")
	q1 := b.DFF(q0, "q1")
	b.MarkOutput(q1, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Site: q0, SA1: true}

	u1, err := Unroll(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res1 := Generate(u1.Netlist, fault.Fault{Site: u1.Sites(q0)[0], SA1: true},
		Options{ExtraSites: u1.Sites(q0)[1:]})
	if res1.Status == Detected {
		t.Fatal("1 frame cannot expose a q0 fault")
	}

	u3, err := Unroll(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	sites := u3.Sites(q0)
	res3 := Generate(u3.Netlist, fault.Fault{Site: sites[0], SA1: true},
		Options{ExtraSites: sites[1:]})
	if res3.Status != Detected {
		t.Fatalf("3 frames should expose q0/sa1: %v", res3.Status)
	}
	_ = f
}

func TestUnrollMatchesSequentialSim(t *testing.T) {
	// The unrolled circuit, fed frame-wise inputs, must equal the
	// sequential simulation of the original.
	b := logic.NewBuilder()
	in := b.InputBus("in", 3)
	acc := b.DFFBus(in, "r")
	x := b.Xor(acc[0], acc[1])
	y := b.And(x, acc[2])
	b.MarkOutput(y, "y")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 4
	u, err := Unroll(n, frames)
	if err != nil {
		t.Fatal(err)
	}
	seq := logictest.NewSimulator(n)
	unr := logictest.NewSimulator(u.Netlist)
	inputs := []uint64{0b101, 0b011, 0b110, 0b001}
	var want []bool
	for _, v := range inputs {
		seq.SetInputBus(in, v)
		seq.Settle()
		want = append(want, seq.Value(n.Outputs()[0]))
		seq.Step()
	}
	for f, v := range inputs {
		for i, id := range u.InputAt[f] {
			unr.SetInput(id, v>>uint(i)&1 == 1)
		}
	}
	unr.Settle()
	for f := range inputs {
		if got := unr.Value(u.OutputAt[f][0]); got != want[f] {
			t.Fatalf("frame %d: unrolled %v, sequential %v", f, got, want[f])
		}
	}
}
