package metrics

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
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
	sc.load(seq)
	e.sample(sc, cells)
	sc.controllability(cells)
	e.observability(sc, cells)
	return cells
}

// sample runs CTrials monitored trials, marking the columns they
// exercise Active and filling those columns' port histograms.
func (e *Engine) sample(sc *scratch, cells []Cell) {
	rec := &sc.rec
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	for trial := 0; trial < e.cfg.CTrials; trial++ {
		sc.good = sc.runTrial(rng, sc.good, noAcc, 0)
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
}

// controllability fills C and CSamples of the active columns from their
// port histograms and empties them. Ports whose sample streams are
// equal share one Entropy: AccA, AccB and Limiter all sample the
// truncater's output, and on MAC rows AddSub's ports repeat MuxA's and
// MuxB's outputs and Buffer's SrcVal repeats Multiplier's OpA. The
// streams are compared before Entropy sorts any of them.
func (sc *scratch) controllability(cells []Cell) {
	distinct, streams := sc.distinct[:0], sc.streams[:0]
	for ci, ports := range sc.hists {
		if !cells[ci].Active {
			continue
		}
		for _, h := range ports {
			s := slices.IndexFunc(distinct, h.sameSamples)
			if s < 0 {
				s, distinct = len(distinct), append(distinct, h)
			}
			streams = append(streams, s)
		}
	}
	entropy := sc.entropy[:0]
	for _, h := range distinct {
		entropy = append(entropy, h.Entropy())
	}
	next := 0
	for ci, ports := range sc.hists {
		if !cells[ci].Active {
			continue
		}
		var hSum, wSum float64
		for _, h := range ports {
			if h.Total() > 0 {
				hSum += entropy[streams[next]]
				wSum += float64(h.Width())
			}
			next++
		}
		cells[ci].C = normalized(hSum, wSum)
		cells[ci].CSamples = ports[0].Total()
		for _, h := range ports {
			h.Reset()
		}
	}
	sc.distinct, sc.streams, sc.entropy = distinct, streams, entropy
}

// observability fills Injections, Detections and O: each of OGoodRuns
// good trials is recorded on sc's tape and replayed once per injected
// error, and an error counts as detected when the output trace differs.
func (e *Engine) observability(sc *scratch, cells []Cell) {
	rec := &sc.rec
	errRng := rand.New(rand.NewSource(e.cfg.Seed ^ 0x5bd1e995))
	for g := 0; g < e.cfg.OGoodRuns; g++ {
		sc.tape.record(rand.New(rand.NewSource(e.cfg.Seed + int64(g)*7919 + 1)))
		sc.good = sc.runTrial(&sc.tape, sc.good, noAcc, 0)
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
				sc.bad = sc.runTrial(&sc.tape, sc.bad, injectAcc, errVal)
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
		CThreshold: cThreshold,
		OThreshold: oThreshold,
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
