package selftest

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/metrics"
)

func TestExpandInstantiatesTemplates(t *testing.T) {
	prog := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 1, RB: 2, RD: 3},
		{Op: isa.OpOut, Src: 3},
	}}
	vecs := Expand(prog, ExpandOptions{Iterations: 4, DisableRegMask: true})
	if vecs.Len() != 12 {
		t.Fatalf("expanded %d vectors, want 12", vecs.Len())
	}
	// The load immediate must vary between iterations (LFSR1 data).
	imm := map[uint64]bool{}
	for it := 0; it < 4; it++ {
		word := vecs.At(it * 3)
		in, err := isa.Decode(uint32(word))
		if err != nil {
			t.Fatal(err)
		}
		if in.Op != isa.OpLdi {
			t.Fatalf("template load reached the core as %v, want plain LD", in.Op)
		}
		imm[uint64(in.Imm)] = true
	}
	if len(imm) < 3 {
		t.Fatalf("immediates not randomized: %v", imm)
	}
	// Non-template instructions are stable across iterations.
	if vecs.At(1) != vecs.At(4) || vecs.At(2) != vecs.At(5) {
		t.Fatal("non-template instructions changed between iterations without masking")
	}
}

func TestExpandRegisterMaskPreservesDataflow(t *testing.T) {
	prog := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 1, RB: 2, RD: 3},
		{Op: isa.OpOut, Src: 3},
	}}
	vecs := Expand(prog, ExpandOptions{Iterations: 8})
	destsSeen := map[uint8]bool{}
	for it := 0; it < 8; it++ {
		ld, _ := isa.Decode(uint32(vecs.At(it * 3)))
		mpy, _ := isa.Decode(uint32(vecs.At(it*3 + 1)))
		out, _ := isa.Decode(uint32(vecs.At(it*3 + 2)))
		// Dataflow: the load's dest must still be the multiply's RA, and
		// the multiply's dest must be the OUT's source.
		if ld.RD != mpy.RA {
			t.Fatalf("iteration %d: load dest R%d != mpy RA R%d", it, ld.RD, mpy.RA)
		}
		if mpy.RD != out.Src {
			t.Fatalf("iteration %d: mpy dest R%d != out src R%d", it, mpy.RD, out.Src)
		}
		destsSeen[ld.RD] = true
	}
	// Register rotation must actually visit multiple register groups.
	if len(destsSeen) < 4 {
		t.Fatalf("register mask visited only %d registers: %v", len(destsSeen), destsSeen)
	}
}

func TestHazardViolations(t *testing.T) {
	clean := []isa.Instr{
		{Op: isa.OpLdi, Imm: 1, RD: 1},
		{Op: isa.OpLdi, Imm: 2, RD: 2},
		{Op: isa.OpNop}, // R2 written one cycle ago: needs the slot
		{Op: isa.OpMpy, RA: 1, RB: 2, RD: 3},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 3},
	}
	if v := HazardViolations(clean); len(v) != 0 {
		t.Fatalf("clean loop flagged: %v", v)
	}
	hazard := []isa.Instr{
		{Op: isa.OpLdi, Imm: 1, RD: 1},
		{Op: isa.OpMov, Src: 1, RD: 2}, // reads R1 one cycle after its write
	}
	if v := HazardViolations(hazard); len(v) != 1 || v[0] != 1 {
		t.Fatalf("hazard not flagged: %v", v)
	}
	// Wrap-around: last instruction writes what the first reads.
	wrap := []isa.Instr{
		{Op: isa.OpOut, Src: 5},
		{Op: isa.OpNop},
		{Op: isa.OpLdi, Imm: 1, RD: 5},
	}
	if v := HazardViolations(wrap); len(v) != 1 || v[0] != 0 {
		t.Fatalf("wrap hazard not flagged: %v", v)
	}
}

func TestFixHazards(t *testing.T) {
	loop := []isa.Instr{
		{Op: isa.OpLdi, Imm: 1, RD: 1},
		{Op: isa.OpMov, Src: 1, RD: 2},
		{Op: isa.OpOut, Src: 2},
	}
	fixed := fixHazards(loop)
	if v := HazardViolations(fixed); len(v) != 0 {
		t.Fatalf("fixHazards left violations: %v", v)
	}
	if len(fixed) <= len(loop) {
		t.Fatal("expected NOP insertion")
	}
}

// sharedTable caches one mid-quality metrics table across tests in this
// package (building it is the expensive part of generation).
var (
	tableOnce sync.Once
	tableEng  *metrics.Engine
	tableGen  *Generator
)

func sharedGenerator() *Generator {
	tableOnce.Do(func() {
		tableEng = metrics.NewEngine(metrics.Config{CTrials: 12000, OGoodRuns: 8, Seed: 33})
		tableGen = NewGenerator(tableEng)
		tableGen.Table()
	})
	return tableGen
}

func TestPhase1GreedyCover(t *testing.T) {
	g := sharedGenerator()
	tab := g.Table()
	p1 := Phase1Traced(tab, nil)
	if len(p1.Chosen) == 0 {
		t.Fatal("phase 1 chose nothing")
	}
	// Greedy order: each chosen row must cover at least as many columns
	// as the next.
	counts := make([]int, len(p1.Chosen))
	for c, r := range p1.CoveredBy {
		for i, cr := range p1.Chosen {
			if cr == r {
				counts[i]++
			}
		}
		_ = c
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("greedy order violated: pick %d covers %d > pick %d covers %d",
				i, counts[i], i-1, counts[i-1])
		}
	}
	// The accumulator columns cannot be covered by any single
	// instruction (their errors need a follow-on reader): they must be
	// among the uncovered set.
	accACol := tab.ColumnIndex(dsp.CompAccA, 0)
	found := false
	for _, c := range p1.Uncovered {
		if c == accACol {
			found = true
		}
	}
	if !found {
		t.Error("AccA column unexpectedly covered in phase 1")
	}
	// Wrapper-covered columns include the output port.
	outCol := tab.ColumnIndex(dsp.CompOutPort, 0)
	if r, ok := p1.CoveredBy[outCol]; !ok || r != -1 {
		t.Errorf("OutPort should be wrapper-covered, got %v %v", r, ok)
	}
}

func TestPhase2CoversAccumulators(t *testing.T) {
	g := sharedGenerator()
	tab := g.Table()
	p1 := Phase1Traced(tab, nil)
	p2 := Phase2Traced(tableEng, tab, p1, nil)

	// Shifter mode 11 is unreachable: must be discarded, not unresolved.
	m11 := tab.ColumnIndex(dsp.CompShifter, 3)
	inDiscarded := false
	for _, c := range p2.Discarded {
		if c == m11 {
			inDiscarded = true
		}
	}
	if !inDiscarded {
		t.Error("shifter mode 11 not discarded")
	}
	// Both accumulators must end up covered by validated sequences.
	for _, comp := range []dsp.Component{dsp.CompAccA, dsp.CompAccB} {
		col := tab.ColumnIndex(comp, 0)
		covered := false
		for _, vs := range p2.Sequences {
			if vs.Col == col {
				covered = true
				if vs.Cell.O < tab.OThreshold {
					t.Errorf("%v sequence O=%.2f below threshold", comp, vs.Cell.O)
				}
			}
		}
		if !covered {
			// Only acceptable if phase 1 somehow covered it already.
			if _, ok := p1.CoveredBy[col]; !ok {
				t.Errorf("%v not covered by phase 2: unresolved=%v", comp, p2.Unresolved)
			}
		}
	}
}

func TestGenerateProgram(t *testing.T) {
	g := sharedGenerator()
	prog, report := g.Generate()
	if prog.Len() < 15 || prog.Len() > 80 {
		t.Fatalf("loop length %d out of plausible range (paper: 34)", prog.Len())
	}
	if v := HazardViolations(prog.Loop); len(v) != 0 {
		t.Fatalf("generated loop has delay-slot hazards at %v:\n%s", v, prog)
	}
	// Every column is either covered (phase 1, wrapper, or phase 2) or
	// discarded as unreachable.
	tab := report.Table
	accounted := map[int]bool{}
	for c := range report.Phase1.CoveredBy {
		accounted[c] = true
	}
	for _, vs := range report.Phase2.Sequences {
		accounted[vs.Col] = true
	}
	for _, c := range report.Phase2.Discarded {
		accounted[c] = true
	}
	for _, c := range report.Phase2.Unresolved {
		accounted[c] = true
	}
	for c := range tab.Cols {
		if !accounted[c] {
			t.Errorf("column %s unaccounted", tab.Cols[c].Label())
		}
	}
	if len(report.Phase2.Unresolved) > 2 {
		t.Errorf("too many unresolved columns: %v", report.Phase2.Unresolved)
	}
	// The program must contain template loads and OUT wrappers.
	s := prog.String()
	if !strings.Contains(s, "RND") || !strings.Contains(s, "OUT") {
		t.Fatalf("program missing template loads or wrappers:\n%s", s)
	}
	t.Logf("generated %d-instruction loop:\n%s\n%s", prog.Len(), s, report.Summary())
}

func TestGeneratedProgramExpands(t *testing.T) {
	g := sharedGenerator()
	prog, _ := g.Generate()
	vecs := Expand(prog, ExpandOptions{Iterations: 10})
	if vecs.Len() != 10*prog.Len() {
		t.Fatalf("expanded %d vectors, want %d", vecs.Len(), 10*prog.Len())
	}
	// Every expanded word must be decodable (the template architecture
	// only forwards real instructions to the core).
	for i := 0; i < vecs.Len(); i++ {
		if _, err := isa.Decode(uint32(vecs.At(i))); err != nil {
			t.Fatalf("vector %d undecodable: %v", i, err)
		}
	}
}
