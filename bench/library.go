package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/designs"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/selftest"
)

// runPaperFlow times what a reproduction user runs (sbstgen, then
// faultsim): build the metrics table, generate the Phase 1/2 program,
// expand it through the template architecture and fault-grade it.
func runPaperFlow(e *env) {
	var d *designs.Design
	seed1, seed2 := e.derive(1), e.derive(2)

	// One flow, timed stage by stage; the simulate stage is cut further
	// at its segment boundaries. It returns the slices in seconds, with
	// the table build first, generation second and expansion third.
	var cycles float64
	flow := func(opID string, cfg metrics.Config) ([]float64, bool) {
		root := e.tr.open("flow", opID, 0, time.Now())
		gen := selftest.NewGenerator(metrics.NewEngine(cfg))
		table := e.tr.timed("metrics.BuildTable", opID, root, func() { gen.Table() })
		var prog *selftest.Program
		generate := e.tr.timed("selftest.Generate", opID, root, func() { prog, _ = gen.Generate() })
		var vecs fault.Vectors
		expand := e.tr.timed("selftest.Expand", opID, root, func() {
			vecs = selftest.Expand(prog, selftest.ExpandOptions{Iterations: 150, Seed1: seed1, Seed2: seed2})
		})
		c := &kernelCase{name: fmt.Sprintf("flow_c%d", cfg.CTrials), d: d, vecs: vecs}
		simulate, ok := c.simulate(e, opID, root, coldSerial)
		e.tr.close(root, time.Now(), map[string]float64{"program_len": float64(prog.Len()), "cycles": float64(vecs.Len())})
		e.set("selftest.program_len", float64(prog.Len()))
		cycles = float64(vecs.Len())
		return append([]float64{table.Seconds(), generate.Seconds(), expand.Seconds()}, simulate...), ok
	}
	// The warm-up runs every stage once at a reduced trial count: it
	// fills the same caches as a full flow for a quarter of its time.
	e.setup(1, func() {
		d = buildDesign(e, designs.DefaultID)
		flow("warm-up", metrics.Config{CTrials: 500, OGoodRuns: 1, Seed: 1})
	})
	// Half the paper's trial counts (12000/8): the table still drives the
	// same Phase 1/2 decisions, and a shorter op fits more samples in.
	// The metrics seed is the one the repository's own runs use, not the
	// run's: it decides how long the program is, so varying it would vary
	// the work by a third. The run's seed picks the expansion's LFSR seeds.
	paper := metrics.Config{CTrials: 6000, OGoodRuns: 4, Seed: 33}

	start := time.Now()
	var ops [][]float64
	for n := 0; e.more(n, 2, e.deadline(start)); n++ {
		slices, ok := flow(fmt.Sprintf("op-%d", n), paper)
		ok = e.statAnySeed("flow.program_len", e.values["selftest.program_len"]) && ok
		ok = e.statAnySeed("flow.cycles", cycles) && ok
		e.op(ok)
		ops = append(ops, slices)
	}
	flowS := sliceMedians(ops)
	e.setN("op_p50_ms", 1000*flowS, len(ops))
	e.setN("work_per_s", cycles/flowS, len(ops))

	stage := func(k int) float64 {
		var xs []float64
		for _, op := range ops {
			xs = append(xs, op[k])
		}
		return median(xs)
	}
	e.set("metrics.engine_s", stage(0))
	e.set("selftest.generate_s", stage(1))
	e.set("selftest.expand_ms", 1000*stage(2))
	e.set("engine.flow_simulate_s", flowS-stage(0)-stage(1)-stage(2))
}

// podemSample is how many dsp faults part A of atpg_podem targets: the
// same strided set on every seed and every pass, so each pass does the
// same work; the seed picks where in the set a pass starts.
const podemSample = 200

// studySet is the constrained shifter set part B proves: with mode 11
// banned, 120 of the shifter's 1634 faults are untestable and a dozen
// run into the 8000-backtrack limit. (The two-minute `ban 01` set and
// the one-minute single-mode sets are deliberately left out.)
var studySet = selftest.ConstraintSet{Label: "ban 11", Modes: []uint8{0, 1, 2}}

// runAtpgPodem measures internal/atpg two ways. Part A is the
// find-a-test path: PODEM under the full-scan bound on a fault sample
// of the dsp core, one pass after another for a quarter of the run.
// Part B is the constrained prove-untestable path: the shifter
// control-bit study, repeated for the rest of it.
func runAtpgPodem(e *env) {
	var d *designs.Design
	var n *logic.Netlist
	var opts atpg.Options
	e.setup(5, func() {
		d = buildDesign(e, designs.DefaultID)
		n = d.Netlist
		// Full-scan bound, as cmd/experiments classifies undetected
		// faults: every flip-flop is a controllable input and its D pin
		// an observation point.
		scanPIs := append(append([]logic.NetID(nil), n.Inputs()...), n.DFFs()...)
		observe := append([]logic.NetID(nil), n.Outputs()...)
		for _, q := range n.DFFs() {
			observe = append(observe, n.Gate(q).In[0])
		}
		opts = atpg.Options{PIs: scanPIs, Observe: observe, MaxBacktracks: 200}
		atpg.Generate(n, d.Faults[0], opts) // warm-up
	})
	stride := len(d.Faults) / podemSample
	first := int(e.derive(1) % podemSample)

	start := time.Now()
	budgetA := start.Add(time.Duration(e.seconds / 4 * float64(time.Second)))
	var passes [][]float64 // per pass, seconds per fault in sample order
	var perFault []float64
	var stats atpg.Stats
	status := make([]byte, podemSample)
	for p := 0; e.more(p, 3, budgetA); p++ {
		opID := fmt.Sprintf("podem-pass-%d", p)
		pass := e.tr.open("atpg.pass", opID, 0, time.Now())
		took := make([]float64, podemSample)
		for k := 0; k < podemSample; k++ {
			pos := (first + k) % podemSample
			var r atpg.Result
			took[pos] = e.tr.timed("atpg.Generate", opID, pass, func() { r = atpg.Generate(n, d.Faults[pos*stride], opts) }).Seconds()
			perFault = append(perFault, 1000*took[pos])
			stats.Merge(r.Stats)
			status[pos] = "DUA"[r.Status]
		}
		e.tr.close(pass, time.Now(), nil)
		passes = append(passes, took)
		e.op(e.statAnySeed("podem.status", string(status)))
	}
	e.setN("work_per_s", podemSample/sliceMedians(passes), len(passes))

	var study []float64
	var aborted int
	for r := 0; e.more(r, 2, e.deadline(start)); r++ {
		var res []selftest.ConstraintResult
		var err error
		took := e.tr.timed("selftest.ShifterConstraintStudy", fmt.Sprintf("study-%d", r), 0, func() {
			res, err = selftest.ShifterConstraintStudy([]selftest.ConstraintSet{studySet})
		})
		ok := e.check(err == nil && len(res) == 1, "study %s: %v", studySet.Label, err)
		if ok {
			ok = e.statAnySeed("study.ban_11", fmt.Sprintf("testable %d of %d, aborted %d", res[0].Testable, res[0].Total, res[0].Aborted))
			aborted = res[0].Aborted
		}
		e.op(ok)
		study = append(study, took.Seconds())
	}
	e.setN("op_p50_ms", 1000*median(study), len(study))

	e.set("atpg.study_ban11_s", median(study))
	e.set("atpg.study_aborted", float64(aborted))
	e.setN("atpg.ms_per_fault_p50", median(perFault), len(perFault))
	if p, v, ok := tail(perFault); ok {
		e.set("atpg.ms_per_fault_tail", v)
		e.set("atpg.tail_percentile", p)
	}
	e.set("atpg.backtracks_per_fault", float64(stats.Backtracks)/float64(len(perFault)))
	e.set("atpg.detected", float64(strings.Count(string(status), "D")))
	e.set("atpg.untestable", float64(strings.Count(string(status), "U")))
	e.set("atpg.aborted", float64(strings.Count(string(status), "A")))
}
