package selftest

import (
	"testing"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/isa"
)

func TestBoostDuplicatesAndStaysClean(t *testing.T) {
	prog := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 0, RndImm: true},
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpNop},
		{Op: isa.OpShift, Acc: isa.AccA, RA: 0, RB: 1, RD: 3},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 3},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 1, RD: 5},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 5},
	}}
	boosted := Boost(prog, map[isa.Op]bool{isa.OpShift: true}, 2)
	shiftCount := 0
	for _, in := range boosted.Loop {
		if in.Op == isa.OpShift {
			shiftCount++
		}
	}
	if shiftCount != 3 {
		t.Fatalf("shift count after boost = %d, want 3", shiftCount)
	}
	mpyCount := 0
	for _, in := range boosted.Loop {
		if in.Op == isa.OpMpy {
			mpyCount++
		}
	}
	if mpyCount != 1 {
		t.Fatalf("mpy duplicated unexpectedly: %d", mpyCount)
	}
	if v := HazardViolations(boosted.Loop); len(v) != 0 {
		t.Fatalf("boosted loop has hazards: %v", v)
	}
}

func TestShifterConstraintStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("constrained ATPG over the full shifter fault list is slow")
	}
	results, err := ShifterConstraintStudy(PaperShifterSets())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]ConstraintResult{}
	for _, r := range results {
		byLabel[r.Label] = r
		t.Logf("%-12s coverage %6.2f%% (%d/%d testable, %d aborted)",
			r.Label, 100*r.Coverage(), r.Testable, r.Total, r.Aborted)
	}
	all := byLabel["all modes"].Coverage()
	// The paper's shape (its absolute ceilings differ because its
	// shifter netlist has no redundant logic): banning 11 or 10 barely
	// matters; banning 01 collapses coverage; only{00,01} stays close.
	if byLabel["ban 11"].Coverage() < 0.94*all {
		t.Errorf("ban 11 should be nearly free: %.3f vs %.3f", byLabel["ban 11"].Coverage(), all)
	}
	if byLabel["ban 10"].Coverage() < 0.94*all {
		t.Errorf("ban 10 should be cheap: %.3f vs %.3f", byLabel["ban 10"].Coverage(), all)
	}
	if byLabel["ban 01"].Coverage() > 0.5*all {
		t.Errorf("ban 01 should collapse coverage: %.3f vs %.3f", byLabel["ban 01"].Coverage(), all)
	}
	if byLabel["only 00,01"].Coverage() < 0.85*all {
		t.Errorf("only{00,01} should stay close: %.3f vs %.3f", byLabel["only 00,01"].Coverage(), all)
	}
}

// TestShifterConstraintStudyRejectsBadSets holds the study to rejecting,
// before any simulation, a set it cannot run as written: no mode at all,
// a mode the two-bit control field cannot take (it used to alias onto
// m&3 and report another set's answer under its own label), or a mode
// listed twice.
func TestShifterConstraintStudyRejectsBadSets(t *testing.T) {
	for _, set := range []ConstraintSet{
		{Label: "empty"},
		{Label: "mode 4", Modes: []uint8{4}},
		{Label: "modes 0 and 7", Modes: []uint8{0, 7}},
		{Label: "01 twice", Modes: []uint8{1, 0, 1}},
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: panicked: %v", set.Label, p)
				}
			}()
			// The valid set first: a bad set anywhere fails the call.
			res, err := ShifterConstraintStudy([]ConstraintSet{{Label: "only 00", Modes: []uint8{0}}, set})
			if err == nil {
				t.Errorf("%s: no error, results %+v", set.Label, res)
			}
		}()
	}
}

func TestTopUpSynthesizesVerifiedPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("needs gate-level core + fault simulation")
	}
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	// Run a very short random-program fault simulation to leave plenty
	// of undetected faults, then top up the multiplier region.
	prog := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 0, RndImm: true},
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpNop},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 1, RD: 3},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 3},
	}}
	vecs := Expand(prog, ExpandOptions{Iterations: 10})
	mult := fault.RegionFaults(core.Netlist, "Multiplier")
	collapsed, _ := fault.Collapse(core.Netlist, mult)
	res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{Faults: collapsed})
	if err != nil {
		t.Fatal(err)
	}
	var undetected []fault.Fault
	for i, c := range res.DetectedAt {
		if c < 0 {
			undetected = append(undetected, res.Faults[i])
		}
	}
	if len(undetected) == 0 {
		t.Skip("short run already detected everything")
	}
	top := TopUp(core, undetected, 5)
	t.Logf("top-up: %d justified, %d unjustified, %d untestable (from %d undetected)",
		top.Justified, top.Unjustified, top.Untestable, len(undetected))
	if top.Justified == 0 {
		t.Fatal("expected at least one verified ATPG pattern")
	}
	if len(top.Once) == 0 {
		t.Fatal("no once-instructions emitted")
	}
}
