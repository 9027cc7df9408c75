package bist

import (
	"testing"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/isa"
)

func TestIRSTVectorsDecodable(t *testing.T) {
	vecs := IRSTVectors(IRSTOptions{Vectors: 2000, Seed: 3, OutEvery: 8})
	outs := 0
	opsSeen := map[isa.Op]bool{}
	for i, v := range vecs {
		in, err := isa.Decode(uint32(v))
		if err != nil {
			t.Fatalf("vector %d undecodable: %v", i, err)
		}
		opsSeen[in.Op] = true
		if in.Op == isa.OpOut {
			outs++
		}
	}
	if outs < 2000/8 {
		t.Fatalf("only %d OUTs with OutEvery=8", outs)
	}
	if len(opsSeen) < 10 {
		t.Fatalf("opcode pool too narrow: %d ops", len(opsSeen))
	}
}

func TestIRSTRestrictedOps(t *testing.T) {
	vecs := IRSTVectors(IRSTOptions{Vectors: 500, Seed: 1, ops: []isa.Op{isa.OpLdi, isa.OpMpy}})
	for _, v := range vecs {
		in, err := isa.Decode(uint32(v))
		if err != nil {
			t.Fatal(err)
		}
		if in.Op != isa.OpLdi && in.Op != isa.OpMpy {
			t.Fatalf("op %v outside restricted pool", in.Op)
		}
	}
}

func TestIRSTCoverageBetweenRawAndSBST(t *testing.T) {
	if testing.Short() {
		t.Skip("fault simulation of the full core is slow")
	}
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	const vectors = 4096
	irst := IRSTVectors(IRSTOptions{Vectors: vectors, Seed: 1, OutEvery: 6})
	raw := PseudorandomVectors(vectors, 1)
	rIRST, err := fault.Simulate(core.Netlist, irst, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rRaw, err := fault.Simulate(core.Netlist, raw, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("at %d vectors: IRST %.2f%%, raw LFSR %.2f%%", vectors,
		100*rIRST.Coverage(), 100*rRaw.Coverage())
	// Guaranteed-legal instructions with regular OUTs should beat raw
	// LFSR words at equal length.
	if rIRST.Coverage() <= rRaw.Coverage()-0.01 {
		t.Errorf("IRST (%.2f%%) should be at least competitive with raw BIST (%.2f%%)",
			100*rIRST.Coverage(), 100*rRaw.Coverage())
	}
}
