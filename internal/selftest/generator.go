package selftest

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Report documents how a program was derived: the metrics table, the
// Phase-1 covering and the Phase-2 sequences, mirroring the paper's
// Tables 2–3 and Figure 7 narrative.
type Report struct {
	Table  *metrics.Table
	Phase1 *Phase1Result
	Phase2 *Phase2Result
}

// Summary renders a human-readable derivation report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("phase 1: %d wrapper rows, %d chosen rows, %d columns left uncovered\n",
		len(r.Phase1.WrapperRows), len(r.Phase1.Chosen), len(r.Phase1.Uncovered))
	for _, ri := range r.Phase1.Chosen {
		covered := 0
		for _, row := range r.Phase1.CoveredBy {
			if row == ri {
				covered++
			}
		}
		s += fmt.Sprintf("  chose %-14s covering %d columns\n", r.Table.Rows[ri].Name, covered)
	}
	s += fmt.Sprintf("phase 2: %d sequences, %d columns discarded (unreachable modes), %d unresolved\n",
		len(r.Phase2.Sequences), len(r.Phase2.Discarded), len(r.Phase2.Unresolved))
	for _, vs := range r.Phase2.Sequences {
		s += fmt.Sprintf("  column %-12s covered by %d-instruction sequence (C=%.2f O=%.2f)\n",
			r.Table.Cols[vs.Col].Label(), len(vs.Seq.Instrs), vs.Cell.C, vs.Cell.O)
	}
	for _, c := range r.Phase2.Discarded {
		s += fmt.Sprintf("  column %-12s discarded: no instruction reaches this mode\n", r.Table.Cols[c].Label())
	}
	return s
}

// Generator derives self-test programs from the metrics table.
type Generator struct {
	eng   *metrics.Engine
	table *metrics.Table
	span  *obs.Span
}

// NewGenerator wraps a metrics engine.
func NewGenerator(eng *metrics.Engine) *Generator { return &Generator{eng: eng} }

// WithObs attaches an instrumentation span: table construction, the
// Phase-1 covering pass, Phase-2 sequence construction and final
// assembly each run under a child span, with per-step phase events.
func (g *Generator) WithObs(span *obs.Span) *Generator {
	g.span = span
	return g
}

// Table builds (once) and returns the metrics table.
func (g *Generator) Table() *metrics.Table {
	if g.table == nil {
		sub := g.span.Child("metrics_table")
		g.table = g.eng.BuildTable()
		sub.Add("rows", int64(len(g.table.Rows)))
		sub.Add("cols", int64(len(g.table.Cols)))
		trials, injections := g.table.TrialCounts()
		sub.Add("trials", int64(trials))
		sub.Add("injections", int64(injections))
		sub.End()
	}
	return g.table
}

// Generate runs Phases 1 and 2 and assembles the loop program: the
// randomization preamble, one covering instruction per chosen row (with
// its OUT wrapper), and the validated Phase-2 sequences, scheduled
// around the pipeline's delay slot.
func (g *Generator) Generate() (*Program, *Report) {
	t := g.Table()

	sub := g.span.Child("phase1")
	p1 := Phase1Traced(t, sub)
	sub.Add("chosen", int64(len(p1.Chosen)))
	sub.Add("uncovered", int64(len(p1.Uncovered)))
	sub.End()

	sub = g.span.Child("phase2")
	p2 := Phase2Traced(g.eng, t, p1, sub)
	sub.Add("sequences", int64(len(p2.Sequences)))
	sub.Add("discarded", int64(len(p2.Discarded)))
	sub.Add("unresolved", int64(len(p2.Unresolved)))
	sub.Add("trials", int64(p2.Trials))
	sub.Add("injections", int64(p2.Injections))
	sub.End()

	sub = g.span.Child("assemble")
	prog := g.assemble(t, p1, p2)
	sub.Add("loop_instrs", int64(prog.Len()))
	sub.End()
	g.span.Event(obs.EventSummary, map[string]any{
		"loop_instrs": prog.Len(),
		"phase1_rows": len(p1.Chosen),
		"phase2_seqs": len(p2.Sequences),
		"unresolved":  len(p2.Unresolved),
	})
	return prog, &Report{Table: t, Phase1: p1, Phase2: p2}
}

// Register allocation for the emitted loop. LFSR2 rotation remaps all of
// these each iteration, so the static assignment only fixes dataflow.
const (
	regOpA   = 0  // random operand (LD RND)
	regOpB   = 1  // random operand (LD RND)
	regOpC   = 14 // random operand / load-spacer
	regZero  = 4  // constant zero for 0-state preambles
	regPre   = 2  // preamble destination
	seqRegLo = 8  // Phase-2 sequences use R8..R11 (see phase2.go)
)

var rowDests = []uint8{3, 5, 6, 7, 12, 13}

func (g *Generator) assemble(t *metrics.Table, p1 *Phase1Result, p2 *Phase2Result) *Program {
	var loop []isa.Instr
	emit := func(line string, comment string) {
		in := mustParse(line)
		in.Comment = comment
		loop = append(loop, in)
	}

	// Randomization preamble: fresh operands every iteration, both
	// accumulators loaded with pseudorandom products (the paper's
	// "randomize accb" sequences in Figure 7).
	emit("LD RND,R0", "pseudorandom operand (LFSR1)")
	emit("LD RND,R1", "pseudorandom operand (LFSR1)")
	emit("LD RND,R14", "pseudorandom operand + load spacer")
	emit("MPYB R0,R1,R2", "randomize accB")
	emit("OUT R2", "wrapper: observe")
	emit("MPYA R1,R14,R2", "randomize accA")
	emit("OUT R2", "wrapper: observe")

	// Chosen Phase-1 rows. The preamble already realizes the mpy rows,
	// so they are not emitted twice. Accumulators alternate to spread
	// coverage over both halves, except where the row's own metrics were
	// measured per-accumulator (they are symmetric).
	dest := 0
	needZero := false
	var body []isa.Instr
	emitted := map[isa.Op]bool{isa.OpMpy: true} // preamble covers MPY
	emitRow := func(op isa.Op, acc isa.Acc, state metrics.AccState, comment string) {
		d := rowDests[dest%len(rowDests)]
		dest++
		if state == metrics.AccZero {
			needZero = true
			zero := mustParse(fmt.Sprintf("MPY%s R4,R4,R2", acc))
			zero.Comment = "zero acc for 0-state row"
			body = append(body, zero)
		}
		in := isa.Instr{Op: op, Acc: acc, RA: regOpA, RB: regOpB, RD: d}
		if op.Format() == isa.Format2 {
			in = isa.Instr{Op: op, RD: d, RndImm: true}
		}
		in = normalizeTemplate(in)
		in.Comment = comment
		body = append(body, in)
		body = append(body, isa.Instr{Op: isa.OpOut, Src: d, Comment: "wrapper: observe"})
		emitted[op] = true
	}
	for i, ri := range p1.Chosen {
		row := t.Rows[ri]
		if row.Op == isa.OpMpy && row.State == metrics.AccRandom {
			continue // realized by the preamble
		}
		acc := isa.AccA
		if i%2 == 1 {
			acc = isa.AccB
		}
		emitRow(row.Op, acc, row.State, fmt.Sprintf("phase 1: row %s", row.Name))
	}
	// Decoder sweep: every MAC-family opcode (both accumulator variants)
	// appears at least once so each decode line toggles — the decoder is
	// itself a core component, and an opcode the program never issues
	// leaves its one-hot logic untested.
	seen := map[uint32]bool{}
	for _, in := range loop {
		seen[in.Encode()>>12] = true
	}
	for _, in := range body {
		seen[in.Encode()>>12] = true
	}
	for _, op := range isa.Ops() {
		if !op.MacFamily() {
			continue
		}
		for _, acc := range []isa.Acc{isa.AccA, isa.AccB} {
			oc := isa.Instr{Op: op, Acc: acc}.Encode() >> 12
			if seen[oc] {
				continue
			}
			seen[oc] = true
			emitRow(op, acc, metrics.AccRandom, "decoder sweep: "+op.Mnemonic()+acc.String())
		}
	}
	if needZero {
		emit("LD 0x00,R4", "constant zero for 0-state preambles")
	}
	loop = append(loop, body...)

	// Phase-2 sequences, embedded verbatim (their register usage is
	// disjoint from the preamble's by construction).
	for _, vs := range p2.Sequences {
		// Track destinations the sequence writes but never observes or
		// consumes; give each a wrapper OUT so no result is dead. Order
		// is kept deterministic (first-write order).
		pending := map[uint8]bool{}
		var pendingOrder []uint8
		for i, in := range vs.Seq.Instrs {
			if in.Op == isa.OpNop {
				continue // the scheduler below re-inserts only needed slack
			}
			in = normalizeTemplate(in)
			if i == vs.Seq.Target {
				in.Comment = fmt.Sprintf("phase 2: target for %s", t.Cols[vs.Col].Label())
			} else if in.Comment == "" {
				in.Comment = "phase 2: wrapper"
			}
			for _, r := range readRegs(in) {
				delete(pending, r)
			}
			if in.Op == isa.OpOut {
				delete(pending, in.Src)
			}
			if in.Op.WritesDest() {
				if !pending[in.RD] {
					pendingOrder = append(pendingOrder, in.RD)
				}
				pending[in.RD] = true
			}
			loop = append(loop, in)
		}
		for _, r := range pendingOrder {
			if pending[r] {
				loop = append(loop, isa.Instr{Op: isa.OpOut, Src: r, Comment: "phase 2: observe dest"})
			}
		}
	}
	// Phase-2 targets read R8/R9; load them with the preamble operands.
	if len(p2.Sequences) > 0 {
		pre := []isa.Instr{
			{Op: isa.OpLdRnd, RD: 8, RndImm: true, Comment: "phase 2 operand"},
			{Op: isa.OpLdRnd, RD: 9, RndImm: true, Comment: "phase 2 operand"},
		}
		loop = append(loop[:3:3], append(pre, loop[3:]...)...)
	}

	// Delay-slot scheduling: insert a NOP wherever an instruction reads
	// a register written exactly one cycle earlier.
	loop = fixHazards(loop)
	return &Program{Loop: loop}
}

// normalizeTemplate canonicalizes random-immediate loads to the trapped
// LDRND opcode — the form the template memory image actually stores, so
// the template architecture knows which immediates to fill from LFSR1.
func normalizeTemplate(in isa.Instr) isa.Instr {
	if in.RndImm && in.Op == isa.OpLdi {
		in.Op = isa.OpLdRnd
	}
	return in
}

// fixHazards inserts NOPs to break write→read distance-1 hazards,
// iterating until the loop (including its wrap-around) is clean.
func fixHazards(loop []isa.Instr) []isa.Instr {
	for iter := 0; iter < 2*len(loop)+4; iter++ {
		bad := HazardViolations(loop)
		if len(bad) == 0 {
			return loop
		}
		i := bad[0]
		nop := isa.Instr{Op: isa.OpNop, Comment: "delay slot"}
		loop = append(loop[:i:i], append([]isa.Instr{nop}, loop[i:]...)...)
	}
	return loop
}
