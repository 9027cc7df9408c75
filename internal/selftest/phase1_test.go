package selftest

import (
	"testing"

	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/metrics"
)

// synthTable builds a metrics table with hand-chosen coverage marks:
// covered[r][c] = true means row r covers column c. Rows use MAC-family
// ops so the wrapper pre-pass ignores them.
func synthTable(covered [][]bool) *metrics.Table {
	rows := make([]metrics.Row, len(covered))
	macOps := []isa.Op{isa.OpMpy, isa.OpMacP, isa.OpMacM, isa.OpMactP, isa.OpMactM, isa.OpShift, isa.OpMpyShift}
	for i := range rows {
		rows[i] = metrics.Row{Name: macOps[i%len(macOps)].Mnemonic() + string(rune('a'+i)), Op: macOps[i%len(macOps)]}
	}
	ncols := 0
	if len(covered) > 0 {
		ncols = len(covered[0])
	}
	cols := make([]metrics.Column, ncols)
	for c := range cols {
		cols[c] = metrics.Column{Comp: dsp.CompMultiplier, Mode: 0}
	}
	t := &metrics.Table{
		Rows: rows, Cols: cols,
		Cells:      make([][]metrics.Cell, len(rows)),
		CThreshold: 0.7, OThreshold: 0.5,
	}
	for r := range rows {
		t.Cells[r] = make([]metrics.Cell, ncols)
		for c := 0; c < ncols; c++ {
			if covered[r][c] {
				t.Cells[r][c] = metrics.Cell{Active: true, C: 0.99, O: 0.99}
			} else {
				t.Cells[r][c] = metrics.Cell{Active: true, C: 0.1, O: 0.1}
			}
		}
	}
	return t
}

// exhaustiveCoverSize finds the true minimum number of rows covering all
// coverable columns (columns no row covers are excluded).
func exhaustiveCoverSize(covered [][]bool) int {
	nrows := len(covered)
	ncols := len(covered[0])
	coverable := 0
	var colMask uint32
	for c := 0; c < ncols; c++ {
		for r := 0; r < nrows; r++ {
			if covered[r][c] {
				colMask |= 1 << uint(c)
				coverable++
				break
			}
		}
	}
	best := nrows + 1
	for pick := 0; pick < 1<<uint(nrows); pick++ {
		var got uint32
		bits := 0
		for r := 0; r < nrows; r++ {
			if pick>>uint(r)&1 == 1 {
				bits++
				for c := 0; c < ncols; c++ {
					if covered[r][c] {
						got |= 1 << uint(c)
					}
				}
			}
		}
		if got == colMask && bits < best {
			best = bits
		}
	}
	return best
}

func TestPhase1GreedyOptimalOnTable1SizedInstances(t *testing.T) {
	// DESIGN.md's ablation: on Table-1-sized instances the greedy cover
	// must match the exhaustive optimum. These shapes mirror the paper's
	// structure: a few broad instructions plus specialists.
	cases := [][][]bool{
		{
			// One row dominates, two specialists.
			{true, true, true, false, false},
			{false, false, false, true, false},
			{false, false, false, false, true},
			{true, false, false, false, false},
		},
		{
			// Two disjoint halves.
			{true, true, false, false},
			{false, false, true, true},
			{true, false, true, false},
		},
		{
			// Column 2 uncovered by everyone.
			{true, false, false},
			{false, false, false},
			{true, false, false},
		},
	}
	for i, covered := range cases {
		tab := synthTable(covered)
		p1 := Phase1Traced(tab, nil)
		want := exhaustiveCoverSize(covered)
		if got := len(p1.Chosen); got != want {
			t.Errorf("case %d: greedy used %d rows, optimum %d", i, got, want)
		}
		// Everything coverable must be covered.
		for c := 0; c < len(covered[0]); c++ {
			coverable := false
			for r := range covered {
				if covered[r][c] {
					coverable = true
				}
			}
			_, isCovered := p1.CoveredBy[c]
			if coverable != isCovered {
				t.Errorf("case %d col %d: coverable=%v covered=%v", i, c, coverable, isCovered)
			}
		}
	}
}

func TestPhase1WrapperPrePass(t *testing.T) {
	// A load row covering a column must remove it before the greedy
	// pass, so no MAC row is "charged" for it.
	tab := synthTable([][]bool{
		{true, false},
		{false, true},
	})
	tab.Rows[0].Op = isa.OpLdi // becomes a wrapper row
	p1 := Phase1Traced(tab, nil)
	if r, ok := p1.CoveredBy[0]; !ok || r != -1 {
		t.Fatalf("column 0 should be wrapper-covered, got %v %v", r, ok)
	}
	if len(p1.Chosen) != 1 {
		t.Fatalf("greedy should only pick one row, got %v", p1.Chosen)
	}
}

func TestPhase1EmptyTable(t *testing.T) {
	tab := &metrics.Table{CThreshold: 0.7, OThreshold: 0.5}
	p1 := Phase1Traced(tab, nil)
	if len(p1.Chosen) != 0 || len(p1.Uncovered) != 0 {
		t.Fatalf("empty table: %+v", p1)
	}
}
