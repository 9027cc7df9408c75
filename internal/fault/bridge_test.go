package fault

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// serialBridgeDetect is the scalar reference for one same-level bridge:
// the faulty machine runs with its own state; each cycle it settles
// freely, and when the two nets disagree it re-settles with the net the
// resolution overrides held at the resolved value (the other net keeps
// its own, since neither lies in the other's cone), then clocks with the
// forcing removed.
func serialBridgeDetect(n *logic.Netlist, br Bridge, vecs VectorSeq) int {
	good := logictest.NewSimulator(n)
	bad := logictest.NewSimulator(n)
	inputs := n.Inputs()
	for cyc := 0; cyc < vecs.Len(); cyc++ {
		v := vecs.At(cyc)
		for b, in := range inputs {
			good.SetInput(in, v>>uint(b)&1 == 1)
			bad.SetInput(in, v>>uint(b)&1 == 1)
		}
		good.Settle()
		bad.Settle()
		if va := bad.Value(br.A); va != bad.Value(br.B) {
			switch br.Kind {
			case BridgeAND: // the high net is pulled low
				if va {
					bad.InjectFault(br.A, false)
				} else {
					bad.InjectFault(br.B, false)
				}
			case BridgeOR: // the low net is pulled high
				if va {
					bad.InjectFault(br.B, true)
				} else {
					bad.InjectFault(br.A, true)
				}
			default:
				bad.InjectFault(br.B, va)
			}
			bad.Settle()
			bad.ClearFault()
		}
		for _, o := range n.Outputs() {
			if good.Value(o) != bad.Value(o) {
				return cyc
			}
		}
		good.ClockAfterSettle()
		bad.ClockAfterSettle()
	}
	return -1
}

func TestBridgeResolutionFunctions(t *testing.T) {
	// Two parallel buffers from independent inputs, one observed: a
	// bridge is detected in the single cycle exactly when the resolution
	// flips the observed net, so the detection cycle reads back the
	// resolved value.
	build := func(observeY bool) (n *logic.Netlist, bx, by logic.NetID) {
		b := logic.NewBuilder()
		x := b.Input("x")
		y := b.Input("y")
		bx = b.Buf(x, "bx")
		by = b.Buf(y, "by")
		if observeY {
			b.MarkOutput(by, "oy")
		} else {
			b.MarkOutput(bx, "ox")
		}
		n, err := b.Build(logic.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return n, bx, by
	}
	nx, bx, by := build(false)
	ny, _, _ := build(true)
	resolved := func(n *logic.Netlist, kind BridgeKind, xv, yv, driven bool) bool {
		t.Helper()
		var vec uint64
		if xv {
			vec |= 1
		}
		if yv {
			vec |= 2
		}
		first, err := SimulateBridges(n, Vectors{vec}, []Bridge{{A: bx, B: by, Kind: kind}})
		if err != nil {
			t.Fatal(err)
		}
		return driven != (first[0] == 0)
	}
	check := func(kind BridgeKind, xv, yv, wantX, wantY bool) {
		t.Helper()
		gotX := resolved(nx, kind, xv, yv, xv)
		gotY := resolved(ny, kind, xv, yv, yv)
		if gotX != wantX || gotY != wantY {
			t.Errorf("%v x=%v y=%v: got %v,%v want %v,%v", kind, xv, yv, gotX, gotY, wantX, wantY)
		}
	}
	check(BridgeAND, true, false, false, false)
	check(BridgeAND, true, true, true, true)
	check(BridgeOR, true, false, true, true)
	check(BridgeOR, false, false, false, false)
	check(BridgeADominates, true, false, true, true)
	check(BridgeADominates, false, true, false, false)
}

func TestSimulateBridgeDetects(t *testing.T) {
	// XOR of two AND gates; bridge the AND outputs (same level).
	b := logic.NewBuilder()
	in := b.InputBus("in", 4)
	g1 := b.And(in[0], in[1])
	g2 := b.And(in[2], in[3])
	b.MarkOutput(b.Xor(g1, g2), "y")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive vectors: the OR bridge must be detected (e.g. in=0b0011:
	// g1=0 g2=1 → bridged both 1 → XOR flips 1→0).
	vecs := make(Vectors, 16)
	for i := range vecs {
		vecs[i] = uint64(i)
	}
	first, err := SimulateBridges(n, vecs, []Bridge{{A: g1, B: g2, Kind: BridgeOR}})
	if err != nil {
		t.Fatal(err)
	}
	if first[0] < 0 {
		t.Fatal("OR bridge undetected by exhaustive vectors")
	}
	// An AND bridge between two identical signals is undetectable:
	// bridge a net with a buffered copy of itself.
	b2 := logic.NewBuilder()
	x2 := b2.Input("x")
	c1 := b2.Buf(x2, "c1")
	c2 := b2.Buf(x2, "c2")
	b2.MarkOutput(b2.And(c1, c2), "y")
	n2, err := b2.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first, err = SimulateBridges(n2, Vectors{0, 1, 0, 1}, []Bridge{{A: c1, B: c2, Kind: BridgeAND}})
	if err != nil {
		t.Fatal(err)
	}
	if first[0] >= 0 {
		t.Fatalf("equal-signal bridge reported detected at %d", first[0])
	}
}

func TestRandomBridgesWellFormed(t *testing.T) {
	n := buildSeq(t)
	bridges := RandomBridges(n, 25, 3)
	if len(bridges) == 0 {
		t.Fatal("no bridges sampled")
	}
	// Recompute levels to verify the same-level guarantee.
	level := make(map[logic.NetID]int32)
	for _, id := range n.CombOrder() {
		g := n.Gate(id)
		for _, in := range g.In {
			if level[in]+1 > level[id] {
				level[id] = level[in] + 1
			}
		}
	}
	for _, br := range bridges {
		if br.A == br.B {
			t.Fatalf("self-bridge %v", br)
		}
		if level[br.A] != level[br.B] {
			t.Fatalf("bridge %v spans levels %d and %d", br, level[br.A], level[br.B])
		}
	}
}

func TestBridgeCoverageOnSeqCircuit(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(200, 4, 31)
	bridges := RandomBridges(n, 20, 7)
	first, err := SimulateBridges(n, vecs, bridges)
	if err != nil {
		t.Fatal(err)
	}
	det := 0
	for i, br := range bridges {
		if want := serialBridgeDetect(n, br, vecs); int(first[i]) != want {
			t.Errorf("bridge %v: parallel=%d serial=%d", br, first[i], want)
		}
		if first[i] >= 0 {
			det++
		}
	}
	if det == 0 {
		t.Error("no bridges detected by 200 random vectors (suspicious)")
	}
	t.Logf("bridge coverage: %d/%d", det, len(bridges))
}

// TestSimulateBridgesMatchesSerial holds the batched simulator to the
// scalar one on random netlists, with more bridges than one pass holds
// so a second batch starts from reset.
func TestSimulateBridgesMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed*104729 + 17))
		n := randCircuit(t, rng, seed%2 == 1)
		bridges := RandomBridges(n, 80, seed)
		vecs := make(Vectors, 40+rng.Intn(120))
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		first, err := SimulateBridges(n, vecs, bridges)
		if err != nil {
			t.Fatal(err)
		}
		for i, br := range bridges {
			if want := serialBridgeDetect(n, br, vecs); int(first[i]) != want {
				t.Fatalf("seed %d bridge %d %v: parallel=%d serial=%d", seed, i, br, first[i], want)
			}
		}
	}
}
