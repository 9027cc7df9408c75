package metrics

import (
	"fmt"
	"strings"

	"repro/internal/dsp"
	"repro/internal/isa"
)

// AccState is the assumed accumulator state for a metrics row: the paper
// computes every instruction's metrics twice, once with the accumulators
// holding zero ("0" rows) and once holding a random value ("R" rows),
// because the test program can steer the core into either state with a
// preamble.
type AccState uint8

// Accumulator state assumptions.
const (
	AccZero AccState = iota
	AccRandom
)

// String renders the paper's suffix convention.
func (s AccState) String() string {
	if s == AccRandom {
		return "R"
	}
	return "0"
}

// Row is one metrics-table row: an instruction variant under an
// accumulator-state assumption.
type Row struct {
	Name  string
	Op    isa.Op
	Acc   isa.Acc
	State AccState
}

// StandardRows returns the row set of the paper's Table 2: every
// data-processing instruction, each under both accumulator-state
// assumptions (accumulator A variants; B is symmetric).
func StandardRows() []Row {
	ops := []isa.Op{
		isa.OpLdi, isa.OpOut, isa.OpMov,
		isa.OpMpy, isa.OpMpyT,
		isa.OpMacP, isa.OpMacM, isa.OpMactP, isa.OpMactM,
		isa.OpShift, isa.OpMpyShift, isa.OpMpyShiftMac,
	}
	var rows []Row
	for _, op := range ops {
		for _, st := range []AccState{AccZero, AccRandom} {
			name := op.Mnemonic()
			if st == AccRandom {
				name += "R"
			}
			rows = append(rows, Row{Name: name, Op: op, Acc: isa.AccA, State: st})
		}
	}
	return rows
}

// Column is one metrics-table column: a component in one of its
// control-bit modes ("Shifter 01", "AddSub 1", ...).
type Column struct {
	Comp dsp.Component
	Mode int
}

// Label renders the column header in the paper's style.
func (c Column) Label() string {
	if c.Comp.Modes() == 1 {
		return c.Comp.Name()
	}
	if c.Comp == dsp.CompShifter {
		return fmt.Sprintf("%s %02b", c.Comp.Name(), c.Mode)
	}
	return fmt.Sprintf("%s %d", c.Comp.Name(), c.Mode)
}

// StandardColumns returns one column per component mode, walking the
// components in Table 2 order.
func StandardColumns() []Column {
	var cols []Column
	for _, comp := range dsp.Components() {
		for m := 0; m < comp.Modes(); m++ {
			cols = append(cols, Column{Comp: comp, Mode: m})
		}
	}
	return cols
}

// Cell is one metrics-table entry.
type Cell struct {
	// Active reports whether the row's instruction exercises the column
	// at all (an instruction never puts the shifter in a mode other than
	// its own, so those cells are blank in the paper's table).
	Active bool
	// C is the controllability metric (0..1).
	C float64
	// O is the observability metric (0..1).
	O float64
	// CSamples counts the controllability trials behind C.
	CSamples int
	// Injections and Detections are the observability counts behind O.
	Injections, Detections int
}

// Table is the full instruction × component-mode metrics table.
type Table struct {
	Rows []Row
	Cols []Column
	// Cells[r][c] corresponds to Rows[r] × Cols[c].
	Cells [][]Cell
	// CThreshold and OThreshold are the coverage thresholds Cθ and Oθ.
	CThreshold, OThreshold float64
}

// TrialCounts returns the behavioural simulations behind one measured
// row: its controllability trials (the largest CSamples, every trial
// exercising at least that column) and its error injections.
func TrialCounts(cells []Cell) (trials, injections int) {
	for _, c := range cells {
		trials = max(trials, c.CSamples)
		injections += c.Injections
	}
	return trials, injections
}

// TrialCounts sums TrialCounts over the table's rows.
func (t *Table) TrialCounts() (trials, injections int) {
	for _, row := range t.Cells {
		tr, inj := TrialCounts(row)
		trials, injections = trials+tr, injections+inj
	}
	return trials, injections
}

// Covered reports whether row r covers column c: both metrics meet their
// thresholds (the paper's "X" mark).
func (t *Table) Covered(r, c int) bool {
	cell := t.Cells[r][c]
	return cell.Active && cell.C >= t.CThreshold && cell.O >= t.OThreshold
}

// ColumnIndex finds the column for a component mode, or -1.
func (t *Table) ColumnIndex(comp dsp.Component, mode int) int {
	for i, c := range t.Cols {
		if c.Comp == comp && c.Mode == mode {
			return i
		}
	}
	return -1
}

// Render formats the table in the paper's "C,O X" style.
func (t *Table) Render() string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-14s", ""))
	for _, c := range t.Cols {
		sb.WriteString(fmt.Sprintf("| %-11s", c.Label()))
	}
	sb.WriteByte('\n')
	for r, row := range t.Rows {
		sb.WriteString(fmt.Sprintf("%-14s", row.Name))
		for c := range t.Cols {
			cell := t.Cells[r][c]
			if !cell.Active {
				sb.WriteString(fmt.Sprintf("| %-11s", ""))
				continue
			}
			mark := " "
			if t.Covered(r, c) {
				mark = "X"
			}
			sb.WriteString(fmt.Sprintf("| %.2f,%.2f %s ", cell.C, cell.O, mark))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
