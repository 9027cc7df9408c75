package selftest

import (
	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// ValidatedSeq is a Phase-2 instruction sequence proven (by the metrics
// engine) to cover one previously uncovered column.
type ValidatedSeq struct {
	Col  int
	Seq  metrics.Sequence
	Cell metrics.Cell
}

// Phase2Result records the specific-coverage pass.
type Phase2Result struct {
	Sequences []ValidatedSeq
	// Discarded lists columns eliminated by the paper's rule (b): no
	// instruction sets the component's control bits to that mode, so the
	// mode is unreachable and its column is dropped (e.g. shifter "11").
	Discarded []int
	// Unresolved lists columns Phase 2 could not cover; Phase 3's
	// deterministic patterns are their last resort.
	Unresolved []int
	// Trials and Injections count the behavioural simulations spent
	// validating candidates, accepted or not.
	Trials, Injections int
}

// Phase2Traced targets the columns Phase 1 left uncovered with
// knowledge-based instruction sequences, validating each candidate with
// the metrics engine before accepting it. With a non-nil span every
// column resolution (sequence found, discarded as unreachable, or
// unresolved) emits an obs.EventPhase, and candidate validations are
// counted on the span.
func Phase2Traced(eng *metrics.Engine, t *metrics.Table, p1 *Phase1Result, span *obs.Span) *Phase2Result {
	res := &Phase2Result{}
	for _, col := range p1.Uncovered {
		// Rule (b): unreachable control-bit modes are discarded.
		if !anyRowActive(t, col) {
			res.Discarded = append(res.Discarded, col)
			span.EventNamed(obs.EventPhase, "column", map[string]any{
				"column": t.Cols[col].Label(), "outcome": "discarded",
			})
			continue
		}
		covered := false
		candidates := 0
		for _, seq := range candidateSequences(t, col) {
			candidates++
			span.Add("candidates_validated", 1)
			cells := eng.MeasureSequence(seq)
			trials, injections := metrics.TrialCounts(cells)
			res.Trials += trials
			res.Injections += injections
			cell := cells[col]
			if cell.Active && cell.C >= t.CThreshold && cell.O >= t.OThreshold {
				res.Sequences = append(res.Sequences, ValidatedSeq{Col: col, Seq: seq, Cell: cell})
				covered = true
				span.EventNamed(obs.EventPhase, "column", map[string]any{
					"column": t.Cols[col].Label(), "outcome": "covered",
					"seq_len": len(seq.Instrs), "candidates": candidates,
					"c": cell.C, "o": cell.O,
				})
				break
			}
		}
		if !covered {
			res.Unresolved = append(res.Unresolved, col)
			span.EventNamed(obs.EventPhase, "column", map[string]any{
				"column": t.Cols[col].Label(), "outcome": "unresolved",
				"candidates": candidates,
			})
		}
	}
	return res
}

func nopInstr() isa.Instr { return isa.Instr{Op: isa.OpNop} }

func anyRowActive(t *metrics.Table, col int) bool {
	for r := range t.Rows {
		if t.Cells[r][col].Active {
			return true
		}
	}
	return false
}

// bestRowFor returns the row with the highest controllability in the
// column (preferring rows that meet Cθ), or -1.
func bestRowFor(t *metrics.Table, col int) int {
	best, bestC := -1, -1.0
	for r := range t.Rows {
		cell := t.Cells[r][col]
		if !cell.Active {
			continue
		}
		if cell.C > bestC {
			best, bestC = r, cell.C
		}
	}
	return best
}

// candidateSequences builds knowledge-based candidates for a column, in
// preference order. The central trick is the paper's: accumulator (and
// other deep-state) errors become observable by following the target
// with a SHIFT — which reads the accumulator back through the datapath —
// and an OUT on the shift result.
func candidateSequences(t *metrics.Table, col int) []metrics.Sequence {
	r := bestRowFor(t, col)
	if r < 0 {
		return nil
	}
	row := t.Rows[r]
	column := t.Cols[col]

	acc := isa.AccA
	if column.Comp == dsp.CompAccB {
		acc = isa.AccB
	}

	target := isa.Instr{Op: row.Op, Acc: acc, RA: 8, RB: 9, RD: 10}
	if row.Op.Format() == isa.Format2 {
		target = isa.Instr{Op: row.Op, RD: 10, RndImm: true}
	}
	nop := isa.Instr{Op: isa.OpNop}
	shift := isa.Instr{Op: isa.OpShift, Acc: acc, RA: 8, RB: 9, RD: 11}
	mac := isa.Instr{Op: isa.OpMacP, Acc: acc, RA: 8, RB: 9, RD: 11}
	outDest := isa.Instr{Op: isa.OpOut, Src: 10}
	outShift := isa.Instr{Op: isa.OpOut, Src: 11}

	var cands []metrics.Sequence
	if column.Comp == dsp.CompForward {
		// The forwarding register only matters when an instruction reads
		// a register written two cycles earlier; build exactly that. A
		// MAC reading the fresh value on both ports exercises both
		// forwarding muxes; the MOV variant covers the source path.
		ld := isa.Instr{Op: isa.OpLdRnd, RD: 8, RndImm: true}
		mac := isa.Instr{Op: isa.OpMacP, Acc: isa.AccA, RA: 8, RB: 8, RD: 10}
		mov := isa.Instr{Op: isa.OpMov, Src: 8, RD: 10}
		return []metrics.Sequence{{
			Instrs: []isa.Instr{ld, nopInstr(), mac, nopInstr(), nopInstr(), {Op: isa.OpOut, Src: 10}},
			Target: 2,
			State:  row.State,
		}, {
			Instrs: []isa.Instr{ld, nopInstr(), mov, nopInstr(), nopInstr(), {Op: isa.OpOut, Src: 10}},
			Target: 2,
			State:  row.State,
		}}
	}
	// 1. Observe through the shifter path (paper's "Phase2 Observe ACCA").
	cands = append(cands, metrics.Sequence{
		Instrs: []isa.Instr{target, nop, nop, shift, nop, nop, outShift},
		Target: 0,
		State:  row.State,
	})
	// 2. Observe through the accumulate path.
	cands = append(cands, metrics.Sequence{
		Instrs: []isa.Instr{target, nop, nop, mac, nop, nop, outShift},
		Target: 0,
		State:  row.State,
	})
	// 3. Both observation paths plus the direct destination.
	cands = append(cands, metrics.Sequence{
		Instrs: []isa.Instr{target, nop, nop, outDest, shift, nop, nop, outShift},
		Target: 0,
		State:  row.State,
	})
	return cands
}
