package bist

import (
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/lfsr"
)

// IRSTOptions configure the instruction-randomization self-test
// baseline, modeled on the scheme of the paper's reference [4] (Batcher
// & Papachristou, "Instruction Randomization Self Test for Processor
// Cores"): opcodes are drawn pseudorandomly from a restricted legal set
// and the data/register fields are fully randomized. Unlike the paper's
// method there is no testability-metric guidance and no coverage-driven
// program structure — which is exactly the gap the paper's Section 1
// identifies ("no specific methodology for constructing the self-test
// program ... difficulty targeting components with poor controllability
// and observability").
type IRSTOptions struct {
	// Vectors is the number of instruction words to generate.
	Vectors int
	// Seed seeds the generator LFSR.
	Seed uint64
	// OutEvery forces an OUT instruction every k-th word (the scheme's
	// "restriction" that keeps responses observable). Zero disables.
	OutEvery int
	// ops restricts the opcode pool in tests (nil = every operation).
	ops []isa.Op
}

// IRSTVectors generates the randomized-instruction stream.
func IRSTVectors(opts IRSTOptions) fault.Vectors {
	ops := opts.ops
	if ops == nil {
		ops = isa.Ops()
	}
	l := lfsr.MustNew(32, opts.Seed|1)
	vecs := make(fault.Vectors, opts.Vectors)
	for i := range vecs {
		if opts.OutEvery > 0 && i%opts.OutEvery == opts.OutEvery-1 {
			in := isa.Instr{Op: isa.OpOut, Src: uint8(l.NextBits(4) & 0xF)}
			vecs[i] = uint64(in.Encode())
			continue
		}
		r := l.NextBits(24)
		op := ops[int(r%uint64(len(ops)))]
		fields := uint32(r >> 5)
		in := isa.Instr{Op: op, Acc: isa.Acc(r >> 4 & 1)}
		switch op.Format() {
		case isa.Format1:
			in.RA = uint8(fields & 0xF)
			in.RB = uint8(fields >> 4 & 0xF)
			in.RD = uint8(fields >> 8 & 0xF)
		case isa.Format2:
			in.Imm = uint8(fields)
			in.RD = uint8(fields >> 8 & 0xF)
		case isa.Format3:
			in.Src = uint8(fields & 0xF)
		case isa.Format4:
			in.Src = uint8(fields & 0xF)
			in.RD = uint8(fields >> 8 & 0xF)
		}
		vecs[i] = uint64(in.Encode())
	}
	return vecs
}
