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

// trialCase is a sequence the trial-level tests run.
type trialCase struct {
	name string
	seq  Sequence
}

// trialCases returns every standard row's sequence, every Phase 2
// candidate shape and 200 random sequences drawn from rng.
func trialCases(rng *rand.Rand) []trialCase {
	var cases []trialCase
	for _, row := range StandardRows() {
		cases = append(cases, trialCase{"row " + row.Name, StandardSequence(row.Op, row.Acc, row.State)})
	}
	for i, seq := range phase2Shapes() {
		cases = append(cases, trialCase{fmt.Sprintf("phase 2 shape %d", i), seq})
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, trialCase{fmt.Sprintf("random %d", i), randomSequence(rng)})
	}
	return cases
}

// injectInto returns runTrial's accumulator argument and a recorder set
// to inject errVal into comp through the probe (noAcc: no injection).
func injectInto(comp dsp.Component, errVal uint32) (dsp.Component, recorder) {
	injectAcc := noAcc
	if comp == dsp.CompAccA || comp == dsp.CompAccB {
		injectAcc = comp
	}
	return injectAcc, recorder{inject: comp != noAcc && injectAcc == noAcc, injectComp: comp, injectVal: errVal}
}

// TestGatedProbeMatchesEveryCycle runs trials with the gated probe and
// the same trials with the probe on every cycle, and requires the same
// output trace and the same recorder state: on every standard row,
// every Phase 2 candidate shape and 200 random sequences, under both
// accumulator states, with no injection and with an injection into each
// component.
func TestGatedProbeMatchesEveryCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	cases := trialCases(rng)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	injections := append([]dsp.Component{noAcc}, components...)
	pairs := 0
	for _, c := range cases {
		for _, state := range []AccState{AccZero, AccRandom} {
			seq := c.seq
			seq.State = state
			sc.load(seq)
			for _, comp := range injections {
				seed, errVal := rng.Int63(), rng.Uint32()&(1<<18-1)
				injectAcc, rec := injectInto(comp, errVal)
				sc.rec = rec
				gated := sc.runTrial(rand.New(rand.NewSource(seed)), nil, injectAcc, errVal)
				gatedRec := sc.rec
				sc.rec = rec
				every := sc.runTrialEveryCycle(seq, rand.New(rand.NewSource(seed)),
					len(seq.Instrs)+dsp.PipelineDepth-1, nil, injectAcc, errVal)
				everyRec := sc.rec
				if string(gated) != string(every) || gatedRec != everyRec {
					injected := "nothing"
					if comp != noAcc {
						injected = comp.Name()
					}
					t.Fatalf("%s, state %s, injecting into %s:\n gated: trace %v recorder %+v\n every: trace %v recorder %+v",
						c.name, state, injected, gated, gatedRec, every, everyRec)
				}
				pairs++
			}
		}
	}
	t.Logf("%d sequences, %d trial pairs", len(cases), pairs)
}

// TestDrainTrimKeepsVerdicts replays each injection at the full length
// the observability pass once ran, six cycles past the last fetch, in
// the test-local loop above, and requires runTrial, which stops at the
// last instruction's writeback, to reach the same detect/no-detect
// verdict: on the gate test's cases, under both accumulator states,
// injecting into each component.
func TestDrainTrimKeepsVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	cases := trialCases(rng)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	runs, detected := 0, 0
	for _, c := range cases {
		for _, state := range []AccState{AccZero, AccRandom} {
			seq := c.seq
			seq.State = state
			sc.load(seq)
			full := len(seq.Instrs) + 6
			for _, comp := range components {
				seed, errVal := rng.Int63(), rng.Uint32()&(1<<comp.Width()-1)
				injectAcc, rec := injectInto(comp, errVal)

				sc.rec = recorder{}
				good := sc.runTrial(rand.New(rand.NewSource(seed)), nil, noAcc, 0)
				sc.rec = rec
				bad := sc.runTrial(rand.New(rand.NewSource(seed)), nil, injectAcc, errVal)
				trimmed := string(good) != string(bad)

				sc.rec = recorder{}
				good = sc.runTrialEveryCycle(seq, rand.New(rand.NewSource(seed)), full, nil, noAcc, 0)
				sc.rec = rec
				bad = sc.runTrialEveryCycle(seq, rand.New(rand.NewSource(seed)), full, nil, injectAcc, errVal)
				if untrimmed := string(good) != string(bad); trimmed != untrimmed {
					t.Fatalf("%s, state %s, injecting %#x into %s: detected %t at %d cycles, %t at %d",
						c.name, state, errVal, comp.Name(), trimmed, len(seq.Instrs)+dsp.PipelineDepth-1, untrimmed, full)
				}
				runs++
				if trimmed {
					detected++
				}
			}
		}
	}
	if detected == 0 || detected == runs {
		t.Fatalf("%d of %d injections detected: the verdicts do not discriminate", detected, runs)
	}
	t.Logf("%d sequences, %d injections, %d detected", len(cases), runs, detected)
}
