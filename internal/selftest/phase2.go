package selftest

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

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
// the metrics engine before accepting it. The columns are resolved
// concurrently, up to GOMAXPROCS at a time, each trying its candidates
// in order, and merged in column order, so the result does not depend
// on the number of cores. With a non-nil span every column resolution
// (sequence found, discarded as unreachable, or unresolved) emits an
// obs.EventPhase, in column order, and candidate validations are
// counted on the span.
func Phase2Traced(eng *metrics.Engine, t *metrics.Table, p1 *Phase1Result, span *obs.Span) *Phase2Result {
	outcomes := make([]columnOutcome, len(p1.Uncovered))
	parallelEach(len(outcomes), func(i int) { outcomes[i] = resolveColumn(eng, t, p1.Uncovered[i]) })
	res := &Phase2Result{}
	for i, o := range outcomes {
		switch col := p1.Uncovered[i]; o.event["outcome"] {
		case "discarded":
			res.Discarded = append(res.Discarded, col)
		case "covered":
			res.Sequences = append(res.Sequences, o.seq)
		default:
			res.Unresolved = append(res.Unresolved, col)
		}
		res.Trials += o.trials
		res.Injections += o.injections
		if o.candidates > 0 {
			span.Add("candidates_validated", int64(o.candidates))
		}
		span.EventNamed(obs.EventPhase, "column", o.event)
	}
	return res
}

// columnOutcome is how Phase 2 resolved one column: the fields of its
// phase event, the sequence that covers it if one does, and the
// candidates and behavioural simulations spent on it.
type columnOutcome struct {
	event                          map[string]any
	seq                            ValidatedSeq
	candidates, trials, injections int
}

// resolveColumn validates a column's candidates in preference order and
// stops at the first that covers it.
func resolveColumn(eng *metrics.Engine, t *metrics.Table, col int) (o columnOutcome) {
	label := t.Cols[col].Label()
	// Rule (b): unreachable control-bit modes are discarded.
	if !anyRowActive(t, col) {
		o.event = map[string]any{"column": label, "outcome": "discarded"}
		return o
	}
	for _, seq := range candidateSequences(t, col) {
		o.candidates++
		cells := eng.MeasureSequence(seq)
		trials, injections := metrics.TrialCounts(cells)
		o.trials += trials
		o.injections += injections
		if cell := cells[col]; cell.Active && cell.C >= t.CThreshold && cell.O >= t.OThreshold {
			o.seq = ValidatedSeq{Col: col, Seq: seq, Cell: cell}
			o.event = map[string]any{"column": label, "outcome": "covered",
				"seq_len": len(seq.Instrs), "candidates": o.candidates, "c": cell.C, "o": cell.O}
			return o
		}
	}
	o.event = map[string]any{"column": label, "outcome": "unresolved", "candidates": o.candidates}
	return o
}

// parallelEach calls do(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, each claiming the next i in turn. A panic in a call is
// re-raised on the caller once every goroutine has returned, with the
// stack of the goroutine that raised it; of several, the lowest i's.
func parallelEach(n int, do func(i int)) {
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				func() {
					defer func() {
						if p := recover(); p != nil {
							panics[i] = fmt.Sprintf("%v\n\ngoroutine stack at the panic:\n%s", p, debug.Stack())
						}
					}()
					do(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
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
