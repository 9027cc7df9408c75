package selftest

import (
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Greedy-cover effort counter (one increment per candidate-row scan).
var ctrGreedyIters = obs.Default().Counter("phase1.greedy_iterations")

// Phase1Result records the global-coverage covering pass.
type Phase1Result struct {
	// WrapperRows are the row indices of the automatic wrapper
	// instructions (Load and Out), whose covered columns are removed
	// before the greedy pass.
	WrapperRows []int
	// Chosen lists the selected row indices in pick order.
	Chosen []int
	// CoveredBy maps each covered column index to the row that covered
	// it (-1 when a wrapper covered it).
	CoveredBy map[int]int
	// Uncovered lists column indices no single instruction covers;
	// Phase 2 targets these.
	Uncovered []int
}

// Phase1Traced runs the paper's global coverage phase: remove the
// columns the Load/Out wrappers cover, then repeatedly pick the
// instruction variant covering the most remaining columns until no
// instruction covers any. With a non-nil span each greedy pick emits an
// obs.EventPhase (row, name, covered, remaining) so the covering pass
// is visible while it runs and replayable from a trace.
func Phase1Traced(t *metrics.Table, span *obs.Span) *Phase1Result {
	res := &Phase1Result{CoveredBy: make(map[int]int)}
	remaining := make(map[int]bool, len(t.Cols))
	for c := range t.Cols {
		remaining[c] = true
	}

	// Wrapper pre-pass: every test sequence begins with loads and ends
	// with an Out, so anything they cover comes for free.
	for r, row := range t.Rows {
		if row.Op != isa.OpLdi && row.Op != isa.OpOut {
			continue
		}
		res.WrapperRows = append(res.WrapperRows, r)
		for c := range t.Cols {
			if remaining[c] && t.Covered(r, c) {
				delete(remaining, c)
				res.CoveredBy[c] = -1
			}
		}
	}

	// Greedy cover.
	for len(remaining) > 0 {
		ctrGreedyIters.Add(1)
		best, bestCount := -1, 0
		for r, row := range t.Rows {
			if row.Op == isa.OpLdi || row.Op == isa.OpOut {
				continue
			}
			count := 0
			for c := range remaining {
				if t.Covered(r, c) {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = r, count
			}
		}
		if best < 0 {
			break
		}
		res.Chosen = append(res.Chosen, best)
		for c := range remaining {
			if t.Covered(best, c) {
				delete(remaining, c)
				res.CoveredBy[c] = best
			}
		}
		span.EventNamed(obs.EventPhase, "pick", map[string]any{
			"row":       best,
			"name":      t.Rows[best].Name,
			"covered":   bestCount,
			"remaining": len(remaining),
		})
		span.Add("picks", 1)
	}

	for c := range t.Cols {
		if remaining[c] {
			res.Uncovered = append(res.Uncovered, c)
		}
	}
	sortInts(res.Uncovered)
	return res
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
