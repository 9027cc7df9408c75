package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
	"repro/internal/isa"
)

func TestHistogramEntropy(t *testing.T) {
	// Constant signal: zero entropy.
	h := NewHistogram(8)
	for i := 0; i < 1000; i++ {
		h.Add(42)
	}
	if got := h.Entropy(); got != 0 {
		t.Fatalf("constant entropy = %v", got)
	}
	// Uniform 4-bit, exhaustively sampled: exactly 4 bits (Miller-Madow
	// correction stays under the clamp).
	h2 := NewHistogram(4)
	for i := 0; i < 16*1000; i++ {
		h2.Add(uint32(i % 16))
	}
	if got := h2.Entropy(); math.Abs(got-4) > 0.01 {
		t.Fatalf("uniform 4-bit entropy = %v", got)
	}
	// Two equally likely values: 1 bit.
	h3 := NewHistogram(8)
	for i := 0; i < 1000; i++ {
		h3.Add(uint32(i % 2))
	}
	if got := h3.Entropy(); math.Abs(got-1) > 0.01 {
		t.Fatalf("binary entropy = %v", got)
	}
}

func TestHistogramWideUniform(t *testing.T) {
	// 18-bit uniform with 300k samples: Miller-Madow should land close
	// to 18 bits (plug-in alone would be ~0.5 bit short).
	h := NewHistogram(18)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300000; i++ {
		h.Add(rng.Uint32())
	}
	if got := h.Entropy(); got < 17.5 {
		t.Fatalf("wide uniform entropy = %v, want ≥17.5", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(6)
	h.Add(1)
	h.Add(2)
	h.Reset()
	if h.Total() != 0 || h.Entropy() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestHistogramSparse(t *testing.T) {
	h := NewHistogram(24)
	for i := 0; i < 4096; i++ {
		h.Add(uint32(i))
	}
	// Every sample distinct: plug-in gives exactly 12 bits; Miller-Madow
	// adds its (K−1)/(2N·ln2) ≈ 0.72-bit correction on top.
	if got := h.Entropy(); got < 12 || got > 12.8 {
		t.Fatalf("sparse uniform-4096 entropy = %v", got)
	}
}

func TestHistogramWideDeterministic(t *testing.T) {
	// Rebuilding a wide histogram from the same samples gives the same
	// bits every time.
	build := func() float64 {
		h := NewHistogram(24)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5000; i++ {
			h.Add(rng.Uint32() >> uint(rng.Intn(20)))
		}
		return h.Entropy()
	}
	want := build()
	for i := 0; i < 100; i++ {
		if got := build(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("rebuild %d: entropy %x, first build %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestHistogramOrderAndReuse(t *testing.T) {
	// The same samples in any order, in a fresh or a Reset histogram,
	// give the same bits: the sum runs in value order.
	for _, width := range []int{3, 8, 18, 24} {
		rng := rand.New(rand.NewSource(int64(width)))
		samples := make([]uint32, 4000)
		for i := range samples {
			samples[i] = rng.Uint32() >> uint(rng.Intn(32))
		}
		h := NewHistogram(width)
		for _, v := range samples {
			h.Add(v)
		}
		want := h.Entropy()

		h.Reset()
		h.Add(5)
		h.Reset()
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		for _, v := range samples {
			h.Add(v)
		}
		if got := h.Entropy(); math.Float64bits(got) != math.Float64bits(want) || h.Total() != len(samples) {
			t.Errorf("width %d: reused histogram gives %v over %d samples, fresh one %v", width, got, h.Total(), want)
		}
	}
}

func TestControllabilityMultiPort(t *testing.T) {
	// One uniform 4-bit port + one constant 4-bit port → C = 0.5.
	a := NewHistogram(4)
	b := NewHistogram(4)
	for i := 0; i < 16*500; i++ {
		a.Add(uint32(i % 16))
		b.Add(7)
	}
	if got := Controllability(a, b); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("C = %v, want 0.5", got)
	}
}

func TestQuickEntropyBounds(t *testing.T) {
	// Entropy is always within [0, width], for any sample multiset.
	f := func(samples []uint16, widthRaw uint8) bool {
		width := int(widthRaw%16) + 1
		h := NewHistogram(width)
		for _, s := range samples {
			h.Add(uint32(s))
		}
		got := h.Entropy()
		return got >= 0 && got <= float64(width)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fastEngine returns an engine sized for unit tests. 3000 trials pin
// 8-bit-port controllability well but underestimate 18-bit-port entropy
// (plug-in H is capped near log2(N)); assertions on wide signals use
// wideEngine instead.
func fastEngine() *Engine {
	return NewEngine(Config{CTrials: 3000, OGoodRuns: 12, Seed: 11})
}

// wideEngine trades observability precision for enough controllability
// trials to resolve 18-bit-port entropy.
func wideEngine() *Engine {
	return NewEngine(Config{CTrials: 150000, OGoodRuns: 2, Seed: 11})
}

func cellFor(t *testing.T, cells []Cell, comp dsp.Component, mode int) Cell {
	t.Helper()
	for i, col := range StandardColumns() {
		if col.Comp == comp && col.Mode == mode {
			return cells[i]
		}
	}
	t.Fatalf("no column %v mode %d", comp, mode)
	return Cell{}
}

func TestLoadRowMetrics(t *testing.T) {
	e := fastEngine()
	// Paper Table 2, "load" row (accumulators zero):
	//   Multiplier C≈0.99 O=0   Shifter00 C≈0.18 O=0   AddSub0 C≈0.35 O=0
	cells := e.MeasureRow(Row{Op: isa.OpLdi, Acc: isa.AccA, State: AccZero})

	mult := cellFor(t, cells, dsp.CompMultiplier, 0)
	if !mult.Active || mult.C < 0.95 {
		t.Errorf("load/Multiplier C = %.3f, want ≈0.99", mult.C)
	}
	if mult.O != 0 {
		t.Errorf("load/Multiplier O = %.3f, want 0 (load result bypasses the MAC)", mult.O)
	}
	sh := cellFor(t, cells, dsp.CompShifter, 0)
	if math.Abs(sh.C-0.18) > 0.02 {
		t.Errorf("load/Shifter00 C = %.3f, want ≈0.18 (4 random amount bits / 22)", sh.C)
	}
	as := cellFor(t, cells, dsp.CompAddSub, 0)
	if math.Abs(as.C-0.36) > 0.05 {
		t.Errorf("load/AddSub C = %.3f, want ≈0.35", as.C)
	}
	if out := cellFor(t, cells, dsp.CompOutPort, 0); !out.Active || out.O < 0.99 {
		t.Errorf("load/OutPort O = %.3f, want 1.0", out.O)
	}
}

func TestLoadRowRandomAcc(t *testing.T) {
	e := wideEngine()
	// Paper Table 2 "load" R row: Shifter00 C≈0.99, AddSub C≈0.85.
	cells := e.MeasureRow(Row{Op: isa.OpLdi, Acc: isa.AccA, State: AccRandom})
	sh := cellFor(t, cells, dsp.CompShifter, 0)
	if sh.C < 0.90 {
		t.Errorf("loadR/Shifter00 C = %.3f, want ≈0.99", sh.C)
	}
	as := cellFor(t, cells, dsp.CompAddSub, 0)
	if math.Abs(as.C-0.85) > 0.07 {
		t.Errorf("loadR/AddSub C = %.3f, want ≈0.85", as.C)
	}
}

func TestMpyRowMetrics(t *testing.T) {
	e := fastEngine()
	cells := e.MeasureRow(Row{Op: isa.OpMpy, Acc: isa.AccA, State: AccZero})
	mult := cellFor(t, cells, dsp.CompMultiplier, 0)
	if mult.C < 0.95 {
		t.Errorf("mpy/Multiplier C = %.3f", mult.C)
	}
	// Errors in the product reach the destination register and the OUT
	// wrapper: observability must clear the 0.5 threshold comfortably.
	if mult.O < 0.5 {
		t.Errorf("mpy/Multiplier O = %.3f, want ≥0.5", mult.O)
	}
	// Accumulator contents are unobservable without a follow-on MAC op
	// (the paper's AccA column is 0.00 everywhere in Table 2).
	accA := cellFor(t, cells, dsp.CompAccA, 0)
	if accA.O != 0 {
		t.Errorf("mpy/AccA O = %.3f, want 0 (needs a Phase-2 sequence)", accA.O)
	}
}

func TestShiftRowUsesVariableMode(t *testing.T) {
	e := NewEngine(Config{CTrials: 150000, OGoodRuns: 12, Seed: 11})
	cells := e.MeasureRow(Row{Op: isa.OpShift, Acc: isa.AccA, State: AccRandom})
	varCell := cellFor(t, cells, dsp.CompShifter, 1)
	if !varCell.Active {
		t.Fatal("shift row did not exercise variable mode")
	}
	if varCell.C < 0.90 {
		t.Errorf("shiftR/Shifter01 C = %.3f, want ≈0.99", varCell.C)
	}
	if varCell.O < 0.5 {
		t.Errorf("shiftR/Shifter01 O = %.3f, want ≥0.5", varCell.O)
	}
	// Pass-mode column must be inactive for this row.
	if cellFor(t, cells, dsp.CompShifter, 0).Active {
		t.Error("shift row wrongly exercised pass mode")
	}
	// Mode 11 is unreachable by the entire ISA (paper Phase-2b discards
	// that column).
	if cellFor(t, cells, dsp.CompShifter, 3).Active {
		t.Error("mode 11 should never be active")
	}
}

func TestMacRandomVsZeroAcc(t *testing.T) {
	e := fastEngine()
	zero := e.MeasureRow(Row{Op: isa.OpMacP, Acc: isa.AccA, State: AccZero})
	rnd := e.MeasureRow(Row{Op: isa.OpMacP, Acc: isa.AccA, State: AccRandom})
	cz := cellFor(t, zero, dsp.CompShifter, 0).C
	cr := cellFor(t, rnd, dsp.CompShifter, 0).C
	if cr <= cz+0.3 {
		t.Errorf("random acc should raise shifter C: zero=%.3f random=%.3f", cz, cr)
	}
	// AddSub in add mode for MAC+.
	if !cellFor(t, rnd, dsp.CompAddSub, 0).Active {
		t.Error("MAC+ should use add mode")
	}
	if cellFor(t, rnd, dsp.CompAddSub, 1).Active {
		t.Error("MAC+ must not use subtract mode")
	}
}

func TestMacMinusUsesSubMode(t *testing.T) {
	e := fastEngine()
	cells := e.MeasureRow(Row{Op: isa.OpMacM, Acc: isa.AccA, State: AccRandom})
	if !cellFor(t, cells, dsp.CompAddSub, 1).Active {
		t.Error("MAC- should use subtract mode")
	}
	if cellFor(t, cells, dsp.CompAddSub, 0).Active {
		t.Error("MAC- must not use add mode")
	}
}

func TestPhase2SequenceObservesAcc(t *testing.T) {
	// The paper's Phase-2 trick: follow the target with a SHIFT (reads
	// the accumulator) and OUT to make accumulator errors observable.
	e := fastEngine()
	seq := Sequence{
		Instrs: []isa.Instr{
			{Op: isa.OpMacP, Acc: isa.AccA, RA: 1, RB: 2, RD: 3},
			{Op: isa.OpNop},
			{Op: isa.OpNop},
			{Op: isa.OpShift, Acc: isa.AccA, RA: 4, RB: 5, RD: 6},
			{Op: isa.OpNop},
			{Op: isa.OpNop},
			{Op: isa.OpOut, Src: 6},
		},
		Target: 0,
		State:  AccRandom,
	}
	cells := e.MeasureSequence(seq)
	accA := cellFor(t, cells, dsp.CompAccA, 0)
	if accA.O < 0.5 {
		t.Errorf("Phase-2 sequence AccA O = %.3f, want ≥0.5", accA.O)
	}
}

func TestStandardRowsAndColumns(t *testing.T) {
	rows := StandardRows()
	if len(rows) != 24 {
		t.Fatalf("standard rows = %d, want 24", len(rows))
	}
	cols := StandardColumns()
	// 14 components + 3 extra shifter modes + 1 extra addsub mode.
	if len(cols) != 18 {
		t.Fatalf("standard columns = %d, want 18", len(cols))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Name] {
			t.Fatalf("duplicate row name %s", r.Name)
		}
		seen[r.Name] = true
	}
}

func TestTableCoveredAndRender(t *testing.T) {
	tab := &Table{
		Rows:       []Row{{Name: "mpy"}},
		Cols:       []Column{{Comp: dsp.CompMultiplier}},
		Cells:      [][]Cell{{{Active: true, C: 0.99, O: 0.71}}},
		CThreshold: 0.70,
		OThreshold: 0.50,
	}
	if !tab.Covered(0, 0) {
		t.Fatal("cell should be covered")
	}
	tab.Cells[0][0].O = 0.3
	if tab.Covered(0, 0) {
		t.Fatal("low O should not cover")
	}
	if tab.Render() == "" {
		t.Fatal("empty render")
	}
	if tab.ColumnIndex(dsp.CompMultiplier, 0) != 0 || tab.ColumnIndex(dsp.CompShifter, 1) != -1 {
		t.Fatal("ColumnIndex wrong")
	}
}

func TestTapeReplayReproducesGoodRun(t *testing.T) {
	// Replaying a recorded trial with nothing injected is the same trial:
	// same output trace, same recorder contents, every word consumed.
	seq := StandardSequence(isa.OpLdi, isa.AccA, AccRandom) // registers, accumulators and an immediate drawn
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.load(seq)
	for seed := int64(1); seed <= 20; seed++ {
		sc.rec = recorder{}
		sc.tape.record(rand.New(rand.NewSource(seed)))
		sc.good = sc.runTrial(&sc.tape, sc.good, noAcc, 0)
		good := sc.rec
		if want := isa.NumRegs + 2 + 1; len(sc.tape.words) != want {
			t.Fatalf("good run recorded %d words, want %d", len(sc.tape.words), want)
		}

		sc.rec = recorder{}
		sc.tape.rewind()
		sc.bad = sc.runTrial(&sc.tape, sc.bad, noAcc, 0)
		if !sc.tape.spent() {
			t.Fatalf("seed %d: replay drew %d of %d words", seed, sc.tape.next, len(sc.tape.words))
		}
		if string(sc.bad) != string(sc.good) {
			t.Fatalf("seed %d: replayed trace %v, good trace %v", seed, sc.bad, sc.good)
		}
		if sc.rec != good {
			t.Fatalf("seed %d: replayed recorder %+v, good recorder %+v", seed, sc.rec, good)
		}

		// And a fresh generator with the same seed is the same trial too.
		fresh := sc.runTrial(rand.New(rand.NewSource(seed)), nil, noAcc, 0)
		if string(fresh) != string(sc.good) || sc.rec != good {
			t.Fatalf("seed %d: re-seeded run differs from the recorded one", seed)
		}
	}
}

func TestBuildTableGOMAXPROCSInvariant(t *testing.T) {
	cfg := Config{CTrials: 400, OGoodRuns: 2, Seed: 9}
	build := func(procs int) *Table {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return NewEngine(cfg).BuildTable()
	}
	one, four := build(1), build(4)
	for r := range one.Cells {
		// A row measured on its own, outside BuildTable, must agree too.
		alone := NewEngine(cfg).MeasureRow(one.Rows[r])
		for c := range one.Cells[r] {
			if one.Cells[r][c] != four.Cells[r][c] || one.Cells[r][c] != alone[c] {
				t.Fatalf("%s / %s: GOMAXPROCS=1 %+v, GOMAXPROCS=4 %+v, alone %+v",
					one.Rows[r].Name, one.Cols[c].Label(), one.Cells[r][c], four.Cells[r][c], alone[c])
			}
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	a := NewEngine(Config{CTrials: 500, OGoodRuns: 3, Seed: 5}).
		MeasureRow(Row{Op: isa.OpMpy, Acc: isa.AccA, State: AccZero})
	b := NewEngine(Config{CTrials: 500, OGoodRuns: 3, Seed: 5}).
		MeasureRow(Row{Op: isa.OpMpy, Acc: isa.AccA, State: AccZero})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("column %d differs between identical runs", i)
		}
	}
}
