package logic_test

import (
	"math/rand"
	"testing"

	"repro/internal/dspgate"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

func buildFullAdder(t *testing.T, opts logic.BuildOptions) (*logic.Netlist, logic.Bus, logic.Bus, logic.NetID, logic.Bus, logic.NetID) {
	t.Helper()
	b := logic.NewBuilder()
	a := b.InputBus("a", 4)
	bb := b.InputBus("b", 4)
	cin := b.Input("cin")
	sum := make(logic.Bus, 4)
	carry := cin
	for i := 0; i < 4; i++ {
		sum[i] = b.Xor(a[i], bb[i], carry)
		carry = b.Or(b.And(a[i], bb[i]), b.And(a[i], carry), b.And(bb[i], carry))
	}
	out := b.MarkOutputBus(sum, "sum")
	cout := b.MarkOutput(carry, "cout")
	n, err := b.Build(opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, a, bb, cin, out, cout
}

func TestAdderExhaustive(t *testing.T) {
	for _, branches := range []bool{false, true} {
		n, a, bb, cin, sum, cout := buildFullAdder(t, logic.BuildOptions{InsertFanoutBranches: branches})
		s := logictest.NewSimulator(n)
		for x := 0; x < 16; x++ {
			for y := 0; y < 16; y++ {
				for c := 0; c < 2; c++ {
					s.SetInputBus(a, uint64(x))
					s.SetInputBus(bb, uint64(y))
					s.SetInput(cin, c == 1)
					s.Settle()
					want := x + y + c
					got := int(s.BusValue(sum))
					if s.Value(cout) {
						got |= 16
					}
					if got != want {
						t.Fatalf("branches=%v %d+%d+%d: got %d want %d", branches, x, y, c, got, want)
					}
				}
			}
		}
	}
}

func TestGateOps(t *testing.T) {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	and := b.MarkOutput(b.And(x, y), "and")
	or := b.MarkOutput(b.Or(x, y), "or")
	nand := b.MarkOutput(b.Nand(x, y), "nand")
	nor := b.MarkOutput(b.Nor(x, y), "nor")
	xor := b.MarkOutput(b.Xor(x, y), "xor")
	xnor := b.MarkOutput(b.Xnor(x, y), "xnor")
	not := b.MarkOutput(b.Not(x), "not")
	mux := b.MarkOutput(b.Mux2(x, y, b.Const(true)), "mux")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	for xi := 0; xi < 2; xi++ {
		for yi := 0; yi < 2; yi++ {
			xv, yv := xi == 1, yi == 1
			s.SetInput(x, xv)
			s.SetInput(y, yv)
			s.Settle()
			check := func(id logic.NetID, want bool, name string) {
				if s.Value(id) != want {
					t.Errorf("x=%v y=%v %s: got %v want %v", xv, yv, name, s.Value(id), want)
				}
			}
			check(and, xv && yv, "and")
			check(or, xv || yv, "or")
			check(nand, !(xv && yv), "nand")
			check(nor, !(xv || yv), "nor")
			check(xor, xv != yv, "xor")
			check(xnor, xv == yv, "xnor")
			check(not, !xv, "not")
			muxWant := yv
			if xv {
				muxWant = true
			}
			check(mux, muxWant, "mux")
		}
	}
}

func TestDFFShiftRegister(t *testing.T) {
	b2 := logic.NewBuilder()
	din := b2.Input("din")
	q0 := b2.DFF(din, "q0")
	q1 := b2.DFF(q0, "q1")
	q2 := b2.DFF(q1, "q2")
	out := b2.MarkOutput(q2, "out")
	n, err := b2.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	pattern := []bool{true, false, true, true, false, false, true}
	var got []bool
	for i := 0; i < len(pattern)+3; i++ {
		if i < len(pattern) {
			s.SetInput(din, pattern[i])
		} else {
			s.SetInput(din, false)
		}
		s.Settle()
		got = append(got, s.Value(out))
		s.Step()
	}
	// Output lags input by 3 cycles; first 3 samples are reset zeros.
	for i, p := range pattern {
		if got[i+3] != p {
			t.Fatalf("shift register: cycle %d got %v want %v (all: %v)", i+3, got[i+3], p, got)
		}
	}
	for i := 0; i < 3; i++ {
		if got[i] {
			t.Fatalf("shift register: cycle %d expected reset 0", i)
		}
	}
}

func TestReconvergentFanoutBuilds(t *testing.T) {
	// The builder API cannot express combinational loops (gates only read
	// already-created nets), so the interesting structural case is
	// reconvergent fanout, which must levelize cleanly with and without
	// branch insertion.
	b := logic.NewBuilder()
	x := b.Input("x")
	d1 := b.Not(x)
	d2 := b.Not(x)
	y := b.And(d1, d2)
	b.MarkOutput(y, "y")
	if _, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true}); err != nil {
		t.Fatalf("diamond should build: %v", err)
	}
}

func TestBranchInsertionPreservesFunction(t *testing.T) {
	plain, a1, b1, c1, s1, co1 := buildFullAdder(t, logic.BuildOptions{})
	branched, a2, b2, c2, s2, co2 := buildFullAdder(t, logic.BuildOptions{InsertFanoutBranches: true})
	if branched.NumNets() <= plain.NumNets() {
		t.Fatalf("branch insertion should add nets: %d vs %d", branched.NumNets(), plain.NumNets())
	}
	sp := logictest.NewSimulator(plain)
	sb := logictest.NewSimulator(branched)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		x, y := rng.Uint64()&15, rng.Uint64()&15
		c := rng.Intn(2) == 1
		sp.SetInputBus(a1, x)
		sp.SetInputBus(b1, y)
		sp.SetInput(c1, c)
		sp.Settle()
		sb.SetInputBus(a2, x)
		sb.SetInputBus(b2, y)
		sb.SetInput(c2, c)
		sb.Settle()
		if sp.BusValue(s1) != sb.BusValue(s2) || sp.Value(co1) != sb.Value(co2) {
			t.Fatalf("branch insertion changed function at x=%d y=%d c=%v", x, y, c)
		}
	}
}

// setInputBus drives a bus of primary inputs of every lane from the low
// bits of v.
func setInputBus(s *logic.CompiledSim, bus logic.Bus, v uint64) {
	for i, id := range bus {
		s.SetInput(id, v>>uint(i)&1 == 1)
	}
}

func TestCompiledSimMatchesScalar(t *testing.T) {
	n, a, bb, cin, sum, cout := buildFullAdder(t, logic.BuildOptions{InsertFanoutBranches: true})
	s := logictest.NewSimulator(n)
	w := logic.NewCompiledSim(logic.Compile(n))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		x, y := rng.Uint64()&15, rng.Uint64()&15
		c := rng.Intn(2) == 1
		s.SetInputBus(a, x)
		s.SetInputBus(bb, y)
		s.SetInput(cin, c)
		s.Settle()
		setInputBus(w, a, x)
		setInputBus(w, bb, y)
		w.SetInput(cin, c)
		w.Settle()
		for _, id := range append(append(logic.Bus{}, sum...), cout) {
			v := w.Word(id)
			if (v&1 == 1) != s.Value(id) {
				t.Fatalf("lane 0 of net %d mismatch at %d+%d", id, x, y)
			}
			// All lanes identical without injections.
			if v != 0 && v != ^uint64(0) {
				t.Fatalf("uninjected lanes diverged on net %d: %016x", id, v)
			}
		}
	}
}

func TestCompiledSimInjection(t *testing.T) {
	n, a, bb, cin, sum, _ := buildFullAdder(t, logic.BuildOptions{InsertFanoutBranches: true})
	w := logic.NewCompiledSim(logic.Compile(n))
	// Force sum[0]'s driving net stuck-at-1 in lane 3.
	target := sum[0]
	w.Inject(target, true, 3)
	setInputBus(w, a, 0)
	setInputBus(w, bb, 0)
	w.SetInput(cin, false)
	w.Settle()
	if w.Word(target)&(1<<3) == 0 {
		t.Fatal("injected lane not forced to 1")
	}
	if w.Word(target)&1 != 0 {
		t.Fatal("good lane corrupted by injection")
	}
	diff := w.OutputDiff()
	if diff&(1<<3) == 0 {
		t.Fatalf("OutputDiff missed injected lane: %016x", diff)
	}
	if diff&^(1<<3) != 0 {
		t.Fatalf("OutputDiff flagged clean lanes: %016x", diff)
	}
	w.ClearInjections()
	w.Settle()
	if w.OutputDiff() != 0 {
		t.Fatal("diff persists after ClearInjections on combinational circuit")
	}
}

func TestCompiledSimLaneState(t *testing.T) {
	b := logic.NewBuilder()
	din := b.Input("din")
	q0 := b.DFF(din, "q0")
	q1 := b.DFF(q0, "q1")
	b.MarkOutput(q1, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := logic.NewCompiledSim(logic.Compile(n))
	for _, v := range []bool{true, false} {
		w.SetInput(din, v)
		w.Settle()
		w.ClockAfterSettle()
	}
	// q0=0, q1=1 in every lane now.
	st := make([]uint64, w.StateWords())
	w.LaneState(0, st)
	if st[0] != 0b10 {
		t.Fatalf("LaneState got %b want 10", st[0])
	}
	// Move lane 5 to a different state and read it back.
	w.SetLaneState(5, []uint64{0b01})
	w.LaneState(5, st)
	if st[0] != 0b01 {
		t.Fatalf("SetLaneState round-trip got %b want 01", st[0])
	}
	w.LaneState(0, st)
	if st[0] != 0b10 {
		t.Fatalf("lane 0 state disturbed: %b", st[0])
	}
}

func TestRegions(t *testing.T) {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	var inner logic.NetID
	b.Scoped("alu", func() {
		b.Scoped("add", func() {
			inner = b.And(x, y)
		})
	})
	b.MarkOutput(inner, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.RegionNets("alu"); len(got) != 1 || got[0] != inner {
		t.Fatalf("alu region = %v, want [%d]", got, inner)
	}
	if got := n.RegionNets("alu.add"); len(got) != 1 || got[0] != inner {
		t.Fatalf("alu.add region = %v, want [%d]", got, inner)
	}
	if regions := n.Regions(); len(regions) != 2 {
		t.Fatalf("regions = %v", regions)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := logic.NewBuilder()
	x := b.Input("x")
	b.And(x) // too few inputs
	if _, err := b.Build(logic.BuildOptions{}); err == nil {
		t.Fatal("expected arity error")
	}

	b2 := logic.NewBuilder()
	b2.Input("x")
	b2.Input("x") // duplicate name
	if _, err := b2.Build(logic.BuildOptions{}); err == nil {
		t.Fatal("expected duplicate-name error")
	}

	b3 := logic.NewBuilder()
	b3.PopScope()
	if _, err := b3.Build(logic.BuildOptions{}); err == nil {
		t.Fatal("expected scope underflow error")
	}
}

func TestLookupAndStats(t *testing.T) {
	n, _, _, _, _, _ := buildFullAdder(t, logic.BuildOptions{})
	if n.Lookup("a[0]") == logic.InvalidNet {
		t.Fatal("Lookup a[0] failed")
	}
	if n.Lookup("nope") != logic.InvalidNet {
		t.Fatal("Lookup nonexistent should fail")
	}
	st := n.Stats()
	if st.Inputs != 9 || st.Outputs != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Levels < 4 {
		t.Fatalf("4-bit ripple adder should have >=4 levels, got %d", st.Levels)
	}
}

// TestLevelAndRank recounts every net's level from its definition (0 at
// a frame source, one more than the deepest input otherwise) by a
// depth-first walk that never reads CombOrder, and checks CombRank is
// the inverse of CombOrder and CombOrder runs level by level, on 40
// random netlists and on the dsp core.
func TestLevelAndRank(t *testing.T) {
	var nets []*logic.Netlist
	for seed := int64(0); seed < 40; seed++ {
		n, err := logictest.RandomNetlist(rand.New(rand.NewSource(seed)), seed%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, core.Netlist)
	for k, n := range nets {
		level := make([]int, n.NumNets())
		done := make([]bool, n.NumNets())
		var recount func(id logic.NetID) int
		recount = func(id logic.NetID) int {
			if !done[id] {
				done[id] = true
				switch g := n.Gate(id); g.Kind {
				case logic.GateInput, logic.GateConst0, logic.GateConst1, logic.GateDFF:
				default:
					for _, in := range g.In {
						level[id] = max(level[id], recount(in)+1)
					}
				}
			}
			return level[id]
		}
		maxLevel := 0
		for id := range level {
			net := logic.NetID(id)
			if got, want := n.Level(net), recount(net); got != want {
				t.Fatalf("netlist %d net %d: Level %d, recount %d", k, id, got, want)
			}
			maxLevel = max(maxLevel, level[id])
			if r := n.CombRank(net); r >= 0 && n.CombOrder()[r] != net || r < 0 && level[id] > 0 {
				t.Fatalf("netlist %d net %d: CombRank %d", k, id, r)
			}
		}
		for r, id := range n.CombOrder() {
			if n.CombRank(id) != r {
				t.Fatalf("netlist %d: CombOrder()[%d] = %d has CombRank %d", k, r, id, n.CombRank(id))
			}
			if r > 0 && n.Level(n.CombOrder()[r-1]) > n.Level(id) {
				t.Fatalf("netlist %d: CombOrder()[%d] has level %d, below the %d before it", k, r, n.Level(id), n.Level(n.CombOrder()[r-1]))
			}
		}
		if st := n.Stats(); st.Levels != maxLevel {
			t.Fatalf("netlist %d: Stats().Levels %d, recount %d", k, st.Levels, maxLevel)
		}
	}
}
