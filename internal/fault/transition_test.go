package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/obs"
)

// serialTransitionDetect is the scalar reference for the
// one-cycle-late-edge model: the faulty machine runs with its own state;
// each cycle it first settles freely to see whether its driver launches
// a slow-direction edge at the site, then re-settles with the site held
// at the previous driven value when it does, and clocks with the hold
// removed.
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
		bad.Settle()
		driven := bad.Value(f.Site)
		if havePrev && driven != prev && driven == f.SlowToRise {
			bad.InjectFault(f.Site, prev)
			bad.Settle()
			bad.ClearFault()
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

// TestTransitionSimMatchesSerial holds the batched simulator to the
// scalar one on two hand-built circuits and on the random netlists
// TestSimulateBridgesMatchesSerial uses, whose flip-flops put Q sites in
// the fault list.
func TestTransitionSimMatchesSerial(t *testing.T) {
	type tcase struct {
		name string
		n    *logic.Netlist
		vecs Vectors
	}
	var cases []tcase
	for _, c := range []struct {
		name  string
		build func(*testing.T) *logic.Netlist
	}{{"adder", buildAdder}, {"seq", buildSeq}} {
		n := c.build(t)
		cases = append(cases, tcase{c.name, n, randomVectors(90, len(n.Inputs()), 101)})
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed*104729 + 17))
		n := randCircuit(t, rng, seed%2 == 1)
		vecs := make(Vectors, 40+rng.Intn(120))
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		cases = append(cases, tcase{fmt.Sprintf("random/%d", seed), n, vecs})
	}
	for _, c := range cases {
		faults := AllTransitionFaults(c.n)
		res, err := SimulateTransitions(c.n, c.vecs, faults)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range faults {
			want := serialTransitionDetect(c.n, f, c.vecs)
			if got := int(res.DetectedAt[i]); got != want {
				t.Errorf("%s fault %v: parallel=%d serial=%d", c.name, f, got, want)
			}
		}
	}
}

// TestLaneModelsSegmentInvariant: a transition or bridge fault's first
// detection does not depend on where the full-sweep segment loop drops
// and repacks, nor on the fault's place in the list. Each transition
// fault is listed twice, so the list spans several batches.
func TestLaneModelsSegmentInvariant(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed*104729 + 17))
		n := randCircuit(t, rng, seed%2 == 1)
		vecs := make(Vectors, 40+rng.Intn(120))
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		check := func(name string, nf int, model func(order []int) laneModel) {
			t.Helper()
			order := make([]int, nf)
			for i := range order {
				order[i] = i
			}
			want, err := sweepModel(n, vecs, model(order), nf, 1024)
			if err != nil {
				t.Fatal(err)
			}
			for _, segLen := range []int{1, 7} {
				got, err := sweepModel(n, vecs, model(order), nf, segLen)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("seed %d %s: segment length %d moves DetectedAt\n got %v\nwant %v", seed, name, segLen, got, want)
				}
			}
			perm := rng.Perm(nf)
			for _, segLen := range []int{1, 7, 1024} {
				got, err := sweepModel(n, vecs, model(perm), nf, segLen)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range perm {
					if got[i] != want[p] {
						t.Errorf("seed %d %s, permuted, segment length %d: fault %d detected at %d, unpermuted %d", seed, name, segLen, p, got[i], want[p])
					}
				}
			}
		}
		tf := AllTransitionFaults(n)
		tf = append(tf, tf...)
		check("transition", len(tf), func(order []int) laneModel {
			m := transitionModel{make([]TransitionFault, len(order)), make([]bool, len(order))}
			for i, p := range order {
				m.faults[i] = tf[p]
			}
			return m
		})
		bridges := RandomBridges(n, 80, seed)
		check("bridge", len(bridges), func(order []int) laneModel {
			m := make(bridgeModel, len(order))
			for i, p := range order {
				m[i] = bridges[p]
			}
			return m
		})
	}
}

// TestLaneModelsQuiet: transition and bridge runs move no faultsim.*
// counter and fire no fault.segment chaos point, though they share the
// reference kernel's segment loop, which does both.
func TestLaneModelsQuiet(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(2100, len(n.Inputs()), 9) // three segments
	cfg, err := chaos.Parse("fault.segment=panic", 1)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(cfg)
	defer chaos.Disarm()
	before, refBefore := obs.Default().Snapshot(), ctrGateEvalsRef.Load()
	if _, err := SimulateTransitions(n, vecs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateBridges(n, vecs, RandomBridges(n, 20, 1)); err != nil {
		t.Fatal(err)
	}
	for name, v := range obs.Default().Snapshot() {
		if strings.HasPrefix(name, "faultsim.") && v != before[name] {
			t.Errorf("%s moved by %d", name, v-before[name])
		}
	}
	if d := ctrGateEvalsRef.Load() - refBefore; d != 0 {
		t.Errorf("reference gate evaluations moved by %d", d)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the reference kernel did not reach the armed fault.segment point")
			}
		}()
		Simulate(n, vecs, SimOptions{Kernel: KernelReference})
	}()
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

// TestTransitionQSiteArrivesLate: a slow edge at a flip-flop's Q is one
// cycle late, as at any other net. The flip-flop latches its D input
// unforced, so the edge arrives on the next cycle and does not launch
// again; a Q site is no stuck-at fault.
func TestTransitionQSiteArrivesLate(t *testing.T) {
	b := logic.NewBuilder()
	a, en := b.Input("a"), b.Input("b")
	q := b.DFF(a, "q")
	b.MarkOutput(b.And(q, en), "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := TransitionFault{Site: q, SlowToRise: true}
	for _, c := range []struct {
		vecs Vectors
		want int
	}{
		// q rises at cycle 1 while b masks it, and is 1 from cycle 2 on.
		{Vectors{1, 1, 1, 3, 3, 3}, -1},
		// q rises at cycle 1 with b set: the late edge shows.
		{Vectors{1, 3, 3, 3}, 1},
	} {
		res, err := SimulateTransitions(n, c.vecs, []TransitionFault{f})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(res.DetectedAt[0]); got != c.want {
			t.Errorf("vectors %v: SimulateTransitions detects at %d, want %d", c.vecs, got, c.want)
		}
		if got := serialTransitionDetect(n, f, c.vecs); got != c.want {
			t.Errorf("vectors %v: serialTransitionDetect detects at %d, want %d", c.vecs, got, c.want)
		}
	}
}
