package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the golden files of the selected tests (testdata/kernel_golden.json, testdata/surface.json) from the current code")

const kernelGoldenPath = "testdata/kernel_golden.json"

// resultHash is the identity the golden pins: every fault's first
// detection cycle and, on an n-detect run, its detection count.
func resultHash(res *fault.Result) string {
	h := sha256.New()
	var b [4]byte
	for _, s := range [][]int32{res.DetectedAt, res.Detections} {
		for _, v := range s {
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelGolden holds the compiled kernel to results written by the
// code before the dense path and the good-machine fill were rebuilt
// (ISSUE 21): whole fault lists on three differently shaped designs,
// and dsp fault-list prefixes whose last batch is part-filled, at every
// kind of stripe width — automatic, one word, an odd width on the
// generic runner, and the widest automatic one. A width never changes a
// result, so every width of a case answers to the same hash.
func TestKernelGolden(t *testing.T) {
	type kcase struct {
		name    string
		design  string
		vectors int
		ndetect int
		prefix  int // 0 = the whole collapsed list
		widths  []int
	}
	cases := []kcase{
		{"dsp/n1", "dsp", 2048, 1, 0, []int{0}},
		{"dsp/n3", "dsp", 2048, 3, 0, []int{0}},
		{"c880", "bench/c880", 4096, 1, 0, []int{0, 1, 3, 8}},
		{"fam", "fam/w16r8s1l1p2", 2048, 1, 0, []int{0, 1, 3, 8}},
	}
	for _, p := range []int{64, 130, 505, 523} {
		cases = append(cases, kcase{fmt.Sprintf("dsp/prefix%d", p), "dsp", 2048, 3, p, []int{0, 1, 3, 8}})
	}

	golden := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(kernelGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	built := map[string]*designs.Design{}
	for _, c := range cases {
		d := built[c.design]
		if d == nil {
			var err error
			if d, err = designs.Build(c.design); err != nil {
				t.Fatal(err)
			}
			built[c.design] = d
		}
		var vecs fault.Vectors
		if d.InstructionDriven() {
			vecs = bist.PseudorandomVectors(c.vectors, 1)
		} else {
			vecs = designs.PseudorandomVectors(len(d.Netlist.Inputs()), c.vectors, 1)
		}
		faults := d.Faults
		if c.prefix > 0 {
			faults = faults[:c.prefix]
		}
		for _, lw := range c.widths {
			res, err := fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: faults, NDetect: c.ndetect, LaneWords: lw})
			if err != nil {
				t.Fatal(err)
			}
			got := resultHash(res)
			if *update {
				if prev, ok := golden[c.name]; ok && prev != got {
					t.Fatalf("%s: width %d hashes to %s, an earlier width to %s", c.name, lw, got, prev)
				}
				golden[c.name] = got
			} else if got != golden[c.name] {
				t.Errorf("%s at LaneWords %d: %d/%d detected, hash %s, golden %s",
					c.name, lw, res.Detected(), len(faults), got, golden[c.name])
			}
		}
	}
	if *update {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
