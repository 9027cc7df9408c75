package fault_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bist"
	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

type bridgeCase struct {
	name    string
	n       *logic.Netlist
	vecs    fault.Vectors
	bridges []fault.Bridge
}

type goldenBridgeCase struct {
	Name    string     `json:"name"`
	Bridges [][3]int32 `json:"bridges"` // A, B, Kind
	First   []int32    `json:"first"`
}

func randVecs(rng *rand.Rand, n int) fault.Vectors {
	v := make(fault.Vectors, n)
	for i := range v {
		v[i] = rng.Uint64()
	}
	return v
}

// bridgeGoldenCases builds the pinned cases: the dsp core under two
// RandomBridges seeds, 40 random netlists with fanout branches off and
// on, and hand-built Q–Q, A-dominates and equal-signal bridges.
func bridgeGoldenCases(t *testing.T) []bridgeCase {
	t.Helper()
	var cases []bridgeCase
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	dspVecs := bist.PseudorandomVectors(512, 1)
	for _, seed := range []int64{3, 11} {
		cases = append(cases, bridgeCase{
			name:    fmt.Sprintf("dsp/seed%d", seed),
			n:       core.Netlist,
			vecs:    dspVecs,
			bridges: fault.RandomBridges(core.Netlist, 200, seed),
		})
	}
	for i := int64(0); i < 40; i++ {
		rng := rand.New(rand.NewSource(i*7919 + 5))
		n, err := logictest.RandomNetlist(rng, i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, bridgeCase{
			name:    fmt.Sprintf("random/%d", i),
			n:       n,
			vecs:    randVecs(rng, 150),
			bridges: fault.RandomBridges(n, 40, i),
		})
	}

	// Two toggle registers (q ← q XOR in), both observed: a Q–Q bridge
	// whose resolved value feeds straight back into D.
	b := logic.NewBuilder()
	x, y := b.Input("x"), b.Input("y")
	d0, d1 := b.DeferredBuf(), b.DeferredBuf()
	q0, q1 := b.DFF(d0, "q0"), b.DFF(d1, "q1")
	b.ResolveBuf(d0, b.Xor(q0, x))
	b.ResolveBuf(d1, b.Xor(q1, y))
	b.MarkOutput(q0, "o0")
	b.MarkOutput(q1, "o1")
	qq, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var qqBridges []fault.Bridge
	for _, k := range []fault.BridgeKind{fault.BridgeAND, fault.BridgeOR, fault.BridgeADominates} {
		qqBridges = append(qqBridges, fault.Bridge{A: q0, B: q1, Kind: k}, fault.Bridge{A: q1, B: q0, Kind: k})
	}
	cases = append(cases, bridgeCase{"qq", qq, randVecs(rand.New(rand.NewSource(1)), 64), qqBridges})

	// Two buffers of independent inputs, each observed only through a
	// register: A-dominates in both directions.
	b = logic.NewBuilder()
	x, y = b.Input("x"), b.Input("y")
	bx, by := b.Buf(x, "bx"), b.Buf(y, "by")
	b.MarkOutput(b.DFF(bx, "rx"), "ox")
	b.MarkOutput(b.DFF(by, "ry"), "oy")
	adom, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, bridgeCase{"adom", adom, randVecs(rand.New(rand.NewSource(2)), 32), []fault.Bridge{
		{A: bx, B: by, Kind: fault.BridgeADominates},
		{A: by, B: bx, Kind: fault.BridgeADominates},
		{A: bx, B: by, Kind: fault.BridgeAND},
	}})

	// A net bridged to a buffered copy of itself: never excited.
	b = logic.NewBuilder()
	x = b.Input("x")
	c1, c2 := b.Buf(x, "c1"), b.Buf(x, "c2")
	b.MarkOutput(b.And(c1, c2), "y")
	equal, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var eqBridges []fault.Bridge
	for _, k := range []fault.BridgeKind{fault.BridgeAND, fault.BridgeOR, fault.BridgeADominates} {
		eqBridges = append(eqBridges, fault.Bridge{A: c1, B: c2, Kind: k})
	}
	cases = append(cases, bridgeCase{"equal", equal, fault.Vectors{0, 1, 0, 1, 1, 0}, eqBridges})
	return cases
}

// TestBridgeGolden: the batched bridge simulator reproduces, bridge for
// bridge, the first-detection cycles in testdata/bridge_golden.json,
// which the serial one-bridge-at-a-time simulator wrote on
// bridgeGoldenCases before bridging faults were batched.
func TestBridgeGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "bridge_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Cases []goldenBridgeCase `json:"cases"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	cases := bridgeGoldenCases(t)
	if len(cases) != len(golden.Cases) {
		t.Fatalf("%d cases, golden has %d", len(cases), len(golden.Cases))
	}
	for ci, c := range cases {
		g := golden.Cases[ci]
		if c.name != g.Name || len(c.bridges) != len(g.Bridges) {
			t.Fatalf("case %d: %s with %d bridges, golden %s with %d", ci, c.name, len(c.bridges), g.Name, len(g.Bridges))
		}
		for i, br := range c.bridges {
			if [3]int32{int32(br.A), int32(br.B), int32(br.Kind)} != g.Bridges[i] {
				t.Fatalf("%s: bridge %d is %v, golden %v — the fixture moved", c.name, i, br, g.Bridges[i])
			}
		}
		first, err := fault.SimulateBridges(c.n, c.vecs, c.bridges)
		if err != nil {
			t.Fatal(err)
		}
		for i, br := range c.bridges {
			if first[i] != g.First[i] {
				t.Errorf("%s: bridge %d %v first detected at %d, golden %d", c.name, i, br, first[i], g.First[i])
			}
		}
	}
}
