package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/isa"
)

// runTrialEveryCycle is runTrial with the probe attached on every cycle:
// the oracle for the gate in runTrial, which attaches it only on the
// cycles where it can record or inject.
func (sc *scratch) runTrialEveryCycle(seq Sequence, src source, cycles int, trace []uint8,
	injectAcc dsp.Component, accErr uint32) []uint8 {

	core, rec := sc.core, &sc.rec
	core.SetProbe(rec)
	core.Reset()
	rec.resetTrial()
	for i := 0; i < isa.NumRegs; i++ {
		core.SetReg(i, uint8(src.Uint32()))
	}
	var accA, accB uint32
	if seq.State == AccRandom {
		accA = src.Uint32() & dsp.Mask18
		accB = src.Uint32() & dsp.Mask18
	}
	core.SetAcc(isa.AccA, accA)
	core.SetAcc(isa.AccB, accB)

	trace = trace[:0]
	s2Cycle := seq.Target + 1
	exCycle := seq.Target + dsp.EXLatency
	for cyc := 0; cyc < cycles; cyc++ {
		word := uint32(0)
		if cyc < len(seq.Instrs) {
			in := seq.Instrs[cyc]
			if in.Op == isa.OpLdi || in.Op == isa.OpLdRnd {
				if in.RndImm || in.Op == isa.OpLdRnd {
					in.Imm = uint8(src.Uint32())
					in.Op = isa.OpLdi
				}
			}
			word = in.Encode()
		}
		switch cyc {
		case s2Cycle:
			rec.armed, rec.window = true, stageS2
		case exCycle:
			rec.armed, rec.window = true, stageEX
		default:
			rec.armed = false
		}
		core.Step(word)
		if cyc == exCycle {
			rec.accAAfter = core.AccValue(isa.AccA)
			rec.accBAfter = core.AccValue(isa.AccB)
			if injectAcc == dsp.CompAccA {
				core.SetAcc(isa.AccA, accErr)
			}
			if injectAcc == dsp.CompAccB {
				core.SetAcc(isa.AccB, accErr)
			}
		}
		trace = append(trace, core.Output())
	}
	rec.armed = false
	return trace
}

// phase2Shapes returns every sequence selftest's Phase 2 can build as a
// candidate (phase2.go, candidateSequences): the three observation
// shapes around each standard row's instruction on either accumulator,
// and the two forwarding-register shapes.
func phase2Shapes() []Sequence {
	nop := isa.Instr{Op: isa.OpNop}
	outDest := isa.Instr{Op: isa.OpOut, Src: 10}
	outShift := isa.Instr{Op: isa.OpOut, Src: 11}
	ld := isa.Instr{Op: isa.OpLdRnd, RD: 8, RndImm: true}
	seqs := []Sequence{
		{Instrs: []isa.Instr{ld, nop, {Op: isa.OpMacP, RA: 8, RB: 8, RD: 10}, nop, nop, outDest}, Target: 2},
		{Instrs: []isa.Instr{ld, nop, {Op: isa.OpMov, Src: 8, RD: 10}, nop, nop, outDest}, Target: 2},
	}
	for _, row := range StandardRows() {
		for _, acc := range []isa.Acc{isa.AccA, isa.AccB} {
			target := isa.Instr{Op: row.Op, Acc: acc, RA: 8, RB: 9, RD: 10}
			if row.Op.Format() == isa.Format2 {
				target = isa.Instr{Op: row.Op, RD: 10, RndImm: true}
			}
			shift := isa.Instr{Op: isa.OpShift, Acc: acc, RA: 8, RB: 9, RD: 11}
			mac := isa.Instr{Op: isa.OpMacP, Acc: acc, RA: 8, RB: 9, RD: 11}
			seqs = append(seqs,
				Sequence{Instrs: []isa.Instr{target, nop, nop, shift, nop, nop, outShift}},
				Sequence{Instrs: []isa.Instr{target, nop, nop, mac, nop, nop, outShift}},
				Sequence{Instrs: []isa.Instr{target, nop, nop, outDest, shift, nop, nop, outShift}},
			)
		}
	}
	return seqs
}

// randomSequence draws 1–8 random instructions, any operation on any
// registers and accumulator, with a random target.
func randomSequence(rng *rand.Rand) Sequence {
	ops := isa.Ops()
	seq := Sequence{Instrs: make([]isa.Instr, 1+rng.Intn(8))}
	for i := range seq.Instrs {
		seq.Instrs[i] = isa.Instr{
			Op: ops[rng.Intn(len(ops))], Acc: isa.Acc(rng.Intn(2)),
			RA: uint8(rng.Intn(16)), RB: uint8(rng.Intn(16)), RD: uint8(rng.Intn(16)),
			Src: uint8(rng.Intn(16)), Imm: uint8(rng.Intn(256)), RndImm: rng.Intn(2) == 0,
		}
	}
	seq.Target = rng.Intn(len(seq.Instrs))
	return seq
}

// TestGatedProbeMatchesEveryCycle runs trials with the gated probe and
// the same trials with the probe on every cycle, and requires the same
// output trace and the same recorder state: on every standard row,
// every Phase 2 candidate shape and 200 random sequences, under both
// accumulator states, over the controllability and the observability
// trial lengths, with no injection and with an injection into each
// component.
func TestGatedProbeMatchesEveryCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	type namedSeq struct {
		name string
		seq  Sequence
	}
	var cases []namedSeq
	for _, row := range StandardRows() {
		cases = append(cases, namedSeq{"row " + row.Name, StandardSequence(row.Op, row.Acc, row.State)})
	}
	for i, seq := range phase2Shapes() {
		cases = append(cases, namedSeq{fmt.Sprintf("phase 2 shape %d", i), seq})
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, namedSeq{fmt.Sprintf("random %d", i), randomSequence(rng)})
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	injections := append([]dsp.Component{noAcc}, components...)
	pairs := 0
	for _, c := range cases {
		for _, state := range []AccState{AccZero, AccRandom} {
			seq := c.seq
			seq.State = state
			for _, cycles := range []int{len(seq.Instrs) + dsp.PipelineDepth - 1, len(seq.Instrs) + 6} {
				for _, comp := range injections {
					seed, errVal := rng.Int63(), rng.Uint32()&(1<<18-1)
					injectAcc := noAcc
					if comp == dsp.CompAccA || comp == dsp.CompAccB {
						injectAcc = comp
					}
					run := func(trial func(Sequence, source, int, []uint8, dsp.Component, uint32) []uint8) ([]uint8, recorder) {
						sc.rec = recorder{inject: comp != noAcc && injectAcc == noAcc, injectComp: comp, injectVal: errVal}
						trace := trial(seq, rand.New(rand.NewSource(seed)), cycles, nil, injectAcc, errVal)
						return trace, sc.rec
					}
					gated, gatedRec := run(sc.runTrial)
					every, everyRec := run(sc.runTrialEveryCycle)
					if string(gated) != string(every) || gatedRec != everyRec {
						injected := "nothing"
						if comp != noAcc {
							injected = comp.Name()
						}
						t.Fatalf("%s, state %s, %d cycles, injecting into %s:\n gated: trace %v recorder %+v\n every: trace %v recorder %+v",
							c.name, state, cycles, injected, gated, gatedRec, every, everyRec)
					}
					pairs++
				}
			}
		}
	}
	t.Logf("%d sequences, %d trial pairs", len(cases), pairs)
}
