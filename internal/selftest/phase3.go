package selftest

import (
	"fmt"

	"repro/internal/atpg"
	"repro/internal/dsp"
	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/lfsr"
	"repro/internal/logic"
	"repro/internal/synth"
)

// ---- Enhancement 1: control-bit constraint analysis (Section 3.4) ----

// ConstraintResult reports the achievable stuck-at coverage of a
// component when its control bits are restricted to an allowed mode set,
// determined exactly by constrained PODEM per collapsed fault.
type ConstraintResult struct {
	Label    string
	Allowed  []uint8
	Testable int
	Total    int
	Aborted  int
}

// Coverage returns testable/total.
func (r ConstraintResult) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Testable) / float64(r.Total)
}

// ShifterConstraintStudy reproduces the paper's shifter analysis: for
// each allowed-mode set, how many of the standalone shifter's collapsed
// faults remain testable. The flow is the classic hybrid a commercial
// tool uses: constrained random fault simulation detects the easy bulk,
// then constrained PODEM settles each survivor exactly. The paper's
// conclusion — mode 01 (variable) is essential while 10/11 are nearly
// redundant — justifies discarding those metric columns.
func ShifterConstraintStudy(sets []ConstraintSet) ([]ConstraintResult, error) {
	b := logic.NewBuilder()
	data := b.InputBus("d", 18)
	amt := b.InputBus("amt", 4)
	mode := b.InputBus("mode", 2)
	out := synth.BarrelShifter(b, data, amt, mode)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		return nil, err
	}
	faults, _ := fault.Collapse(n, fault.AllFaults(n))
	// One PODEM solver per mode value, built on first use and shared by
	// every set that allows the mode.
	var solvers [4]*atpg.Solver
	solverFor := func(m uint8) *atpg.Solver {
		if solvers[m&3] == nil {
			solvers[m&3] = atpg.NewSolver(n, atpg.Options{
				Fixed:         map[logic.NetID]bool{mode[0]: m&1 == 1, mode[1]: m&2 == 2},
				MaxBacktracks: 8000,
			})
		}
		return solvers[m&3]
	}
	results := make([]ConstraintResult, 0, len(sets))
	for _, set := range sets {
		res := ConstraintResult{Label: set.Label, Allowed: set.Modes, Total: len(faults)}

		// Random pass: 18+4 data/amount bits pseudorandom, mode cycling
		// through the allowed set. Inputs are ordered d, amt, mode.
		const randVectors = 4096
		l := lfsr.MustNew(24, 0xBEEF)
		vecs := make(fault.Vectors, randVectors)
		for cycle := range vecs {
			v := l.NextBits(3) & (1<<22 - 1)
			m := set.Modes[cycle%len(set.Modes)]
			vecs[cycle] = v | uint64(m)<<22
		}
		sim, err := fault.Simulate(n, vecs, fault.SimOptions{Faults: faults})
		if err != nil {
			return nil, err
		}

		// Exact pass for survivors.
		for i, f := range faults {
			if sim.DetectedAt[i] >= 0 {
				res.Testable++
				continue
			}
			status := atpg.Untestable
			for _, m := range set.Modes {
				r := solverFor(m).Generate(f)
				if r.Status == atpg.Detected {
					status = atpg.Detected
					break
				}
				if r.Status == atpg.Aborted {
					status = atpg.Aborted
				}
			}
			switch status {
			case atpg.Detected:
				res.Testable++
			case atpg.Aborted:
				res.Aborted++
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// ConstraintSet names an allowed control-bit mode set.
type ConstraintSet struct {
	Label string
	Modes []uint8
}

// PaperShifterSets returns the five constraint sets of Section 3.4.
func PaperShifterSets() []ConstraintSet {
	return []ConstraintSet{
		{Label: "all modes", Modes: []uint8{0, 1, 2, 3}},
		{Label: "ban 11", Modes: []uint8{0, 1, 2}},
		{Label: "ban 00", Modes: []uint8{1, 2, 3}},
		{Label: "ban 01", Modes: []uint8{0, 2, 3}},
		{Label: "ban 10", Modes: []uint8{0, 1, 3}},
		{Label: "only 00,01", Modes: []uint8{0, 1}},
	}
}

// ---- Enhancement 2: execution-frequency boosting (Section 3.4) ----

// Boost returns a program whose loop executes instructions of the given
// operations (with their immediately following OUT wrappers) extra times
// per iteration, speeding coverage of slow components so the total test
// length can shrink. Each extra copy is preceded by fresh pseudorandom
// operand loads — a duplicate fed the same operands would recompute the
// same values and add nothing.
func Boost(p *Program, ops map[isa.Op]bool, extraCopies int) *Program {
	var loop []isa.Instr
	for i := 0; i < len(p.Loop); i++ {
		in := p.Loop[i]
		loop = append(loop, in)
		if !ops[in.Op] || !in.Op.MacFamily() {
			continue
		}
		block := []isa.Instr{in}
		// Carry the wrapper OUT (and any delay-slot NOP before it).
		for j := i + 1; j < len(p.Loop) && j <= i+2; j++ {
			next := p.Loop[j]
			if next.Op == isa.OpNop || (next.Op == isa.OpOut && next.Src == in.RD) {
				block = append(block, next)
				if next.Op == isa.OpOut {
					break
				}
			} else {
				break
			}
		}
		for c := 0; c < extraCopies; c++ {
			loop = append(loop,
				isa.Instr{Op: isa.OpLdRnd, RD: in.RA, RndImm: true, Comment: "phase 3: boost operand"},
				isa.Instr{Op: isa.OpLdRnd, RD: in.RB, RndImm: true, Comment: "phase 3: boost operand"})
			for _, bi := range block {
				bi.Comment = "phase 3: frequency boost"
				loop = append(loop, bi)
			}
		}
	}
	return &Program{Once: p.Once, Loop: fixHazards(loop)}
}

// ---- Enhancement 3: ATPG top-up for random-resistant faults ----

// TopUpResult reports the deterministic-pattern pass.
type TopUpResult struct {
	// Once holds the synthesized run-once instruction blocks.
	Once []isa.Instr
	// Justified counts faults for which a verified block was emitted.
	Justified int
	// Unjustified counts faults PODEM could test but whose pattern the
	// instruction set could not deliver (or whose block failed
	// verification) — the difficulty the paper's Section 3.4 discusses.
	Unjustified int
	// Untestable counts faults PODEM proved untestable even with the
	// operand registers freely controllable.
	Untestable int
}

// TopUp attacks undetected (random-resistant) faults with
// component-local ATPG: PODEM runs on the core's combinational frame
// with the execute-stage operand registers as the only decision inputs
// and one operation's control word fixed (with the accumulators zeroed,
// a state the preamble can always establish), so a found test is exactly
// "load these two values and execute that operation". Each synthesized
// block is verified by fault-simulating it against the target fault
// before being accepted — the justification difficulty the paper's
// Section 3.4 discusses shows up here as the Unjustified count.
func TopUp(core *dspgate.Core, undetected []fault.Fault, maxPatterns int) TopUpResult {
	n := core.Netlist
	opA := lookupBus(n, "Pipeline.ex_opa", 8)
	opB := lookupBus(n, "Pipeline.ex_opb", 8)
	macOut := lookupBus(n, "Limiter.macOut", 8)
	accNets := append(lookupBus(n, "AccA.accA", 18), lookupBus(n, "AccB.accB", 18)...)

	pis := append(append([]logic.NetID{}, opA...), opB...)
	ops := []struct {
		op  isa.Op
		acc isa.Acc
	}{
		{isa.OpMpy, isa.AccA}, {isa.OpMpyT, isa.AccA},
		{isa.OpMpyShift, isa.AccA}, {isa.OpMpyShiftMac, isa.AccA},
		{isa.OpMacM, isa.AccA},
	}
	solvers := make([]*atpg.Solver, len(ops))
	for i, o := range ops {
		fixed := ctrlFixed(n, o.op, o.acc)
		for _, a := range accNets {
			fixed[a] = false // zeroed accumulators, reachable via preamble
		}
		solvers[i] = atpg.NewSolver(n, atpg.Options{
			PIs:           pis,
			Fixed:         fixed,
			Observe:       macOut,
			MaxBacktracks: 4000,
		})
	}

	var res TopUpResult
	for _, f := range undetected {
		if res.Justified >= maxPatterns {
			break
		}
		verdict := atpg.Untestable
		for oi, o := range ops {
			r := solvers[oi].Generate(f)
			if r.Status == atpg.Aborted && verdict != atpg.Detected {
				verdict = atpg.Aborted
			}
			if r.Status != atpg.Detected {
				continue
			}
			verdict = atpg.Detected
			a, bv := packAssignment(r.Assignment, opA), packAssignment(r.Assignment, opB)
			block := fixHazards([]isa.Instr{
				{Op: isa.OpLdi, Imm: 0, RD: 4, Comment: fmt.Sprintf("phase 3: ATPG pattern for %v", f)},
				{Op: isa.OpLdi, Imm: a, RD: 1},
				{Op: isa.OpLdi, Imm: bv, RD: 2},
				{Op: isa.OpMpy, Acc: isa.AccA, RA: 4, RB: 4, RD: 5}, // zero accA
				{Op: isa.OpMpy, Acc: isa.AccB, RA: 4, RB: 4, RD: 5}, // zero accB
				{Op: o.op, Acc: o.acc, RA: 1, RB: 2, RD: 3},
				{Op: isa.OpOut, Src: 3},
			})
			if verifyBlock(n, block, f) {
				res.Once = append(res.Once, block...)
				res.Justified++
				break
			}
			verdict = atpg.Aborted // found but not deliverable via this op
		}
		switch verdict {
		case atpg.Detected:
		case atpg.Untestable:
			res.Untestable++
		default:
			res.Unjustified++
		}
	}
	return res
}

// ctrlFixed fixes the execute-stage control flip-flops to an operation's
// control word.
func ctrlFixed(n *logic.Netlist, op isa.Op, acc isa.Acc) map[logic.NetID]bool {
	cw := ctrlWord(op, acc)
	fixed := map[logic.NetID]bool{}
	for name, v := range cw {
		id := n.Lookup("Pipeline." + name)
		if id != logic.InvalidNet {
			fixed[id] = v
		}
	}
	return fixed
}

func ctrlWord(op isa.Op, acc isa.Acc) map[string]bool {
	c := dsp.ControlBits(op, acc)
	return map[string]bool{
		"ex_sub":   c.Sub,
		"ex_accb":  c.AccB,
		"ex_trunc": c.TruncEn,
		"ex_mode0": c.Mode&1 == 1,
		"ex_mode1": c.Mode&2 == 2,
		"ex_zacc":  c.ZeroAcc,
		"ex_zprod": c.ZeroProd,
		"ex_mac":   c.MacFamily,
		"ex_ldi":   c.IsLdi,
		"ex_out":   c.IsOut,
		"ex_wd":    c.WritesDest,
	}
}

func lookupBus(n *logic.Netlist, base string, width int) logic.Bus {
	bus := make(logic.Bus, width)
	for i := range bus {
		bus[i] = n.Lookup(fmt.Sprintf("%s[%d]", base, i))
		if bus[i] == logic.InvalidNet {
			panic("selftest: missing net " + fmt.Sprintf("%s[%d]", base, i))
		}
	}
	return bus
}

func packAssignment(assign map[logic.NetID]bool, bus logic.Bus) uint8 {
	var v uint8
	for i, id := range bus {
		if assign[id] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// verifyBlock fault-simulates the block (plus pipeline drain) against
// the single target fault and reports whether it detects it.
func verifyBlock(n *logic.Netlist, block []isa.Instr, f fault.Fault) bool {
	vecs := make(fault.Vectors, 0, len(block)+6)
	for _, in := range block {
		vecs = append(vecs, uint64(in.Encode()))
	}
	for i := 0; i < 6; i++ {
		vecs = append(vecs, 0)
	}
	res, err := fault.Simulate(n, vecs, fault.SimOptions{Faults: []fault.Fault{f}})
	if err != nil {
		return false
	}
	return res.Detected() == 1
}
