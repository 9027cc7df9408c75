package fault_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

const transitionGoldenPath = "testdata/transition_golden.json"

type transitionCase struct {
	name   string
	n      *logic.Netlist
	vecs   fault.Vectors
	faults []fault.TransitionFault
}

type goldenTransitionCase struct {
	Name       string     `json:"name"`
	Faults     [][2]int32 `json:"faults"` // site, 1 = slow to rise
	DetectedAt []int32    `json:"detected_at"`
}

// transitionGoldenCases builds the pinned cases: a strided sample of
// dsp's transition faults that keeps every flip-flop Q site, every
// transition fault of c880 and of a family core, and 40 random
// netlists with fanout branches off and on.
func transitionGoldenCases(t *testing.T) []transitionCase {
	t.Helper()
	var cases []transitionCase
	for _, id := range []string{"dsp", "bench/c880", "fam/w8r4s1l1p2"} {
		d, err := designs.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		n := d.Netlist
		vecs := designs.PseudorandomVectors(len(n.Inputs()), 256, 1)
		faults := fault.AllTransitionFaults(n)
		if d.InstructionDriven() {
			vecs = bist.PseudorandomVectors(256, 1)
			q := map[logic.NetID]bool{}
			for _, id := range n.DFFs() {
				q[id] = true
			}
			var sample []fault.TransitionFault
			for i, f := range faults {
				if q[f.Site] || i%16 == 0 {
					sample = append(sample, f)
				}
			}
			faults = sample
		}
		cases = append(cases, transitionCase{id, n, vecs, faults})
	}
	for i := int64(0); i < 40; i++ {
		rng := rand.New(rand.NewSource(i*7919 + 5))
		n, err := logictest.RandomNetlist(rng, i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, transitionCase{fmt.Sprintf("random/%d", i), n, randVecs(rng, 150), fault.AllTransitionFaults(n)})
	}
	return cases
}

// TestTransitionGolden: SimulateTransitions reproduces, fault for
// fault, the first-detection cycles in testdata/transition_golden.json.
// After a change that means to move them, rewrite the file with
//
//	go test ./internal/fault -run TestTransitionGolden -update
func TestTransitionGolden(t *testing.T) {
	cases := transitionGoldenCases(t)
	got := make([]goldenTransitionCase, len(cases))
	for ci, c := range cases {
		res, err := fault.SimulateTransitions(c.n, c.vecs, c.faults)
		if err != nil {
			t.Fatal(err)
		}
		g := goldenTransitionCase{Name: c.name, DetectedAt: res.DetectedAt}
		for _, f := range c.faults {
			str := int32(0)
			if f.SlowToRise {
				str = 1
			}
			g.Faults = append(g.Faults, [2]int32{int32(f.Site), str})
		}
		got[ci] = g
	}
	// The flag is declared by the package's internal tests.
	if flag.Lookup("update").Value.(flag.Getter).Get().(bool) {
		var buf bytes.Buffer
		buf.WriteString("{\"cases\": [\n")
		for ci, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if ci < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]}\n")
		if err := os.WriteFile(transitionGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile(filepath.FromSlash(transitionGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Cases []goldenTransitionCase `json:"cases"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(golden.Cases) {
		t.Fatalf("%d cases, golden has %d", len(got), len(golden.Cases))
	}
	for ci, g := range got {
		w := golden.Cases[ci]
		if g.Name != w.Name || len(g.Faults) != len(w.Faults) {
			t.Fatalf("case %d: %s with %d faults, golden %s with %d", ci, g.Name, len(g.Faults), w.Name, len(w.Faults))
		}
		for i, f := range g.Faults {
			if f != w.Faults[i] {
				t.Fatalf("%s: fault %d is %v, golden %v — the fixture moved", g.Name, i, f, w.Faults[i])
			}
			if g.DetectedAt[i] != w.DetectedAt[i] {
				t.Errorf("%s: fault %d %v first detected at %d, golden %d", g.Name, i, cases[ci].faults[i], g.DetectedAt[i], w.DetectedAt[i])
			}
		}
	}
}
