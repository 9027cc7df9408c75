package metrics

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/dsp"
)

// components and columns are the fixed walk orders of a measurement;
// firstColumn[comp] is the component's mode-0 column, its other modes
// following in order.
var (
	components  = dsp.Components()
	columns     = StandardColumns()
	firstColumn = func() []int {
		first := make([]int, len(components))
		for i, c := range columns {
			if c.Mode == 0 {
				first[c.Comp] = i
			}
		}
		return first
	}()
)

// columnIndex finds the column of a component mode, or -1.
func columnIndex(comp dsp.Component, mode int) int {
	if mode < 0 || mode >= comp.Modes() {
		return -1
	}
	return firstColumn[comp] + mode
}

// MeasureSequence computes one metrics-table row for the target
// instruction of a sequence: controllability from CTrials monitored
// runs and observability from OGoodRuns × 2×n error injections per
// component. The returned cells align with StandardColumns().
func (e *Engine) MeasureSequence(seq Sequence) []Cell {
	sc := scratchPool.Get().(*scratch)
	cells := e.measure(seq, sc)
	scratchPool.Put(sc)
	return cells
}

func (e *Engine) measure(seq Sequence, sc *scratch) []Cell {
	cells := make([]Cell, len(columns))
	sc.rec = recorder{} // nothing observed by the scratch's last user survives
	e.controllability(seq, sc, cells)
	e.observability(seq, sc, cells)
	return cells
}

// controllability fills Active, C and CSamples from CTrials monitored
// trials. It leaves sc's histograms empty again.
func (e *Engine) controllability(seq Sequence, sc *scratch, cells []Cell) {
	rec := &sc.rec
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	// Nothing is sampled after the last instruction's writeback, and the
	// draws all happen while instructions are fed, so the drain cycles
	// past the pipeline depth — there for error propagation — are not run.
	cycles := len(seq.Instrs) + min(e.cfg.DrainCycles, dsp.PipelineDepth-1)
	for trial := 0; trial < e.cfg.CTrials; trial++ {
		sc.good = sc.runTrial(seq, rng, cycles, sc.good, noAcc, 0)
		for _, comp := range components {
			mode, seen := observedMode(rec, comp)
			if !seen {
				continue
			}
			ci := columnIndex(comp, mode)
			if ci < 0 {
				continue
			}
			cells[ci].Active = true
			ports := compPorts[comp]
			if sc.hists[ci] == nil {
				for _, p := range ports {
					sc.hists[ci] = append(sc.hists[ci], NewHistogram(p.width()))
				}
			}
			for pi, p := range ports {
				if v, ok := portValue(rec, p); ok {
					sc.hists[ci][pi].Add(v)
				}
			}
		}
	}
	for ci, ports := range sc.hists {
		if !cells[ci].Active {
			continue
		}
		cells[ci].C = Controllability(ports...)
		cells[ci].CSamples = ports[0].Total()
		for _, h := range ports {
			h.Reset()
		}
	}
}

// observability fills Injections, Detections and O: each of OGoodRuns
// good trials is recorded on sc's tape and replayed once per injected
// error, and an error counts as detected when the output trace differs.
func (e *Engine) observability(seq Sequence, sc *scratch, cells []Cell) {
	rec := &sc.rec
	errRng := rand.New(rand.NewSource(e.cfg.Seed ^ 0x5bd1e995))
	cycles := len(seq.Instrs) + e.cfg.DrainCycles
	for g := 0; g < e.cfg.OGoodRuns; g++ {
		sc.tape.record(rand.New(rand.NewSource(e.cfg.Seed + int64(g)*7919 + 1)))
		sc.good = sc.runTrial(seq, &sc.tape, cycles, sc.good, noAcc, 0)
		good := *rec // snapshot of observed values and modes

		for _, comp := range components {
			mode, seen := observedMode(&good, comp)
			if !seen {
				continue
			}
			ci := columnIndex(comp, mode)
			if ci < 0 {
				continue
			}
			width := comp.Width()
			correct := good.compVal[comp]
			injectAcc := noAcc
			switch comp {
			case dsp.CompAccA:
				correct, injectAcc = good.accAAfter, comp
			case dsp.CompAccB:
				correct, injectAcc = good.accBAfter, comp
			case dsp.CompOutPort:
				correct = good.outVal
			}
			mask := uint32(1)<<uint(width) - 1
			for k := 0; k < 2*width; k++ {
				errVal := errRng.Uint32() & mask
				for errVal == correct {
					errVal = errRng.Uint32() & mask
				}
				// Accumulator errors go into the stored state; every
				// other component is overridden through the probe.
				rec.inject = injectAcc == noAcc
				rec.injectComp = comp
				rec.injectVal = errVal
				sc.tape.rewind()
				sc.bad = sc.runTrial(seq, &sc.tape, cycles, sc.bad, injectAcc, errVal)
				rec.inject = false
				if !sc.tape.spent() {
					panic("metrics: an injection run drew fewer random words than its good run")
				}
				cells[ci].Injections++
				if !bytes.Equal(sc.good, sc.bad) {
					cells[ci].Detections++
				}
			}
		}
	}
	for ci := range cells {
		if cells[ci].Injections > 0 {
			cells[ci].O = float64(cells[ci].Detections) / float64(cells[ci].Injections)
		}
	}
}

// observedMode returns the component's active mode in the last recorded
// trial and whether the component was exercised at all.
func observedMode(rec *recorder, comp dsp.Component) (int, bool) {
	if comp == dsp.CompOutPort {
		return 0, rec.outSeen
	}
	if !rec.compSeen[comp] {
		return 0, false
	}
	return rec.compMode[comp], true
}

func portValue(rec *recorder, p portSrc) (uint32, bool) {
	if p.isComp {
		if !rec.compSeen[p.comp] {
			return 0, false
		}
		return rec.compVal[p.comp], true
	}
	if !rec.sigSeen[p.sig] {
		return 0, false
	}
	return rec.sigVal[p.sig], true
}

// BuildTable measures the full standard metrics table (the paper's
// Table 2): every instruction variant × every component mode.
func (e *Engine) BuildTable() *Table {
	rows := StandardRows()
	t := &Table{
		Rows:       rows,
		Cols:       StandardColumns(),
		Cells:      make([][]Cell, len(rows)),
		CThreshold: e.cfg.CThreshold,
		OThreshold: e.cfg.OThreshold,
	}
	// Rows share nothing — each seeds its own generators from cfg.Seed —
	// so workers take them one at a time and write their own slot.
	todo := make(chan int, len(rows))
	for r := range rows {
		todo <- r
	}
	close(todo)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(rows)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*scratch)
			defer scratchPool.Put(sc)
			for r := range todo {
				t.Cells[r] = e.measure(StandardSequence(rows[r].Op, rows[r].Acc, rows[r].State), sc)
			}
		}()
	}
	wg.Wait()
	return t
}

// MeasureRow measures a single standard row (convenience for tests and
// incremental exploration).
func (e *Engine) MeasureRow(row Row) []Cell {
	return e.MeasureSequence(StandardSequence(row.Op, row.Acc, row.State))
}
