package selftest

import (
	"testing"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/isa"
)

func signatureProgram() *Program {
	return &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 0, RndImm: true},
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpNop},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 1, RD: 2},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 2},
	}}
}

func TestSignatureGoldenDeterministic(t *testing.T) {
	core, err := dspgate.Build(dspgate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vecs := Expand(signatureProgram(), ExpandOptions{Iterations: 30})
	a, err := Signature(core.Netlist, vecs, SignatureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Signature(core.Netlist, vecs, SignatureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("golden signature not deterministic: %x vs %x", a, b)
	}
}

func TestSignatureDetectsFaults(t *testing.T) {
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	vecs := Expand(signatureProgram(), ExpandOptions{Iterations: 30})
	golden, err := Signature(core.Netlist, vecs, SignatureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the exact per-cycle fault simulator: every
	// fault it detects should flip the signature (barring ~2^-16
	// aliasing), and every fault it misses must keep it.
	faults, _ := fault.Collapse(core.Netlist, fault.AllFaults(core.Netlist))
	sample := faults
	if len(sample) > 40 {
		step := len(sample) / 40
		var s []fault.Fault
		for i := 0; i < len(sample); i += step {
			s = append(s, sample[i])
		}
		sample = s
	}
	res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{Faults: sample})
	if err != nil {
		t.Fatal(err)
	}
	aliased := 0
	for i, f := range sample {
		sig, err := Signature(core.Netlist, vecs, SignatureOptions{Fault: &f})
		if err != nil {
			t.Fatal(err)
		}
		detected := res.DetectedAt[i] >= 0
		flipped := sig != golden
		if !detected && flipped {
			t.Fatalf("fault %v: undetected at outputs but signature flipped", f)
		}
		if detected && !flipped {
			aliased++
		}
	}
	if aliased > 1 {
		t.Fatalf("%d of %d detected faults aliased in a 16-bit MISR (expected ≈0)", aliased, len(sample))
	}
}

func TestSignatureMISRWidths(t *testing.T) {
	core, err := dspgate.Build(dspgate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vecs := Expand(signatureProgram(), ExpandOptions{Iterations: 3})
	for _, w := range []int{8, 16, 32} {
		if _, err := Signature(core.Netlist, vecs, SignatureOptions{misrWidth: w}); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
	if _, err := Signature(core.Netlist, vecs, SignatureOptions{misrWidth: 23}); err == nil {
		t.Error("unsupported width should error")
	}
}
