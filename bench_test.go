// Package repro's root benchmarks regenerate each paper artifact at a
// benchmark-friendly scale and report the headline quality metric
// (coverage, program length) through b.ReportMetric alongside timing.
// The full paper-scale runs live in cmd/experiments.
package repro

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/selftest"
	"repro/internal/simpledsp"
)

var (
	fixOnce sync.Once
	fixCore *dspgate.Core
	fixProg *selftest.Program
	fixRep  *selftest.Report
)

func fixtures(b testing.TB) (*dspgate.Core, *selftest.Program, *selftest.Report) {
	b.Helper()
	fixOnce.Do(func() {
		c, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
		if err != nil {
			panic(err)
		}
		fixCore = c
		eng := metrics.NewEngine(metrics.Config{CTrials: 12000, OGoodRuns: 8, Seed: 33})
		gen := selftest.NewGenerator(eng)
		fixProg, fixRep = gen.Generate()
	})
	return fixCore, fixProg, fixRep
}

// BenchmarkTable1Metrics regenerates the paper's Table 1 (E1).
func BenchmarkTable1Metrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := simpledsp.BuildTable(simpledsp.Config{CTrials: 2000, OGoodRuns: 20, Seed: 9})
		if len(tab.Rows) != 8 {
			b.Fatal("bad table")
		}
	}
}

// reportTrialRate reports behavioural simulations per second: the
// controllability trials and error injections behind the measured cells.
func reportTrialRate(b *testing.B, trials, injections int) {
	b.ReportMetric(float64(trials+injections)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkTable2MetricsRow measures one Table 2 row (E2; the full
// 24-row table is the same work ×24).
func BenchmarkTable2MetricsRow(b *testing.B) {
	eng := metrics.NewEngine(metrics.Config{CTrials: 2000, OGoodRuns: 4, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	trials, injections := 0, 0
	for i := 0; i < b.N; i++ {
		cells := eng.MeasureRow(metrics.Row{Op: isa.OpMacP, Acc: isa.AccA, State: metrics.AccRandom})
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
		t, inj := metrics.TrialCounts(cells)
		trials, injections = trials+t, injections+inj
	}
	reportTrialRate(b, trials, injections)
}

// BenchmarkMetricsTable builds the whole Table 2 at the configuration
// the repository benchmark's paper_flow workload uses, so its ns/op is
// that workload's metrics.engine_s without the harness: 95–106 ms at
// -cpu 1 and 56–85 ms at -cpu 2 on a 2-vCPU Xeon at 2.10 GHz, with
// 0.8 MB and about 365 allocations per table.
func BenchmarkMetricsTable(b *testing.B) {
	eng := metrics.NewEngine(metrics.Config{CTrials: 6000, OGoodRuns: 4, Seed: 33})
	b.ReportAllocs()
	b.ResetTimer()
	trials, injections := 0, 0
	for i := 0; i < b.N; i++ {
		tab := eng.BuildTable()
		t, inj := tab.TrialCounts()
		trials, injections = trials+t, injections+inj
	}
	reportTrialRate(b, trials, injections)
}

// BenchmarkPhase1Cover runs the greedy covering pass over the metrics
// table (E3).
func BenchmarkPhase1Cover(b *testing.B) {
	_, _, rep := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p1 := selftest.Phase1Traced(rep.Table, nil)
		if len(p1.Chosen) == 0 {
			b.Fatal("empty cover")
		}
	}
}

// BenchmarkProgramGeneration runs the full generation flow, metrics
// table included (E4 / Figure 7).
func BenchmarkProgramGeneration(b *testing.B) {
	b.ReportAllocs()
	trials, injections := 0, 0
	for i := 0; i < b.N; i++ {
		eng := metrics.NewEngine(metrics.Config{CTrials: 4000, OGoodRuns: 4, Seed: 33})
		prog, rep := selftest.NewGenerator(eng).Generate()
		b.ReportMetric(float64(prog.Len()), "instrs/loop")
		t, inj := rep.Table.TrialCounts()
		trials += t + rep.Phase2.Trials
		injections += inj + rep.Phase2.Injections
	}
	reportTrialRate(b, trials, injections)
}

// BenchmarkFaultCoverageBase fault-simulates the base self-test program
// for a scaled-down iteration count (E5; paper scale is 6000 iterations).
func BenchmarkFaultCoverageBase(b *testing.B) {
	core, prog, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 100})
		res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Coverage(), "%coverage")
		b.ReportMetric(float64(vecs.Len())/float64(b.Elapsed().Seconds()+1e-9)/1e6, "Mvec/s")
	}
}

// countingSink is the cheapest possible live sink: it measures the cost
// of event construction and fan-in, not of any particular backend.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Emit(obs.Event) { s.n.Add(1) }

// BenchmarkFaultCoverageTraced is BenchmarkFaultCoverageBase with a
// live event sink attached. The Base benchmark above is the disabled
// path (nil Sink ⇒ the simulator skips event construction entirely);
// the delta between the two is the enabled-path instrumentation cost.
func BenchmarkFaultCoverageTraced(b *testing.B) {
	core, prog, _ := fixtures(b)
	sink := &countingSink{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 100})
		res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{Sink: sink})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Coverage(), "%coverage")
	}
	if sink.n.Load() == 0 {
		b.Fatal("sink saw no events")
	}
}

// BenchmarkShifterConstraints runs one constrained-coverage analysis of
// the standalone shifter (E6 runs the paper's six sets).
func BenchmarkShifterConstraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := selftest.ShifterConstraintStudy([]selftest.ConstraintSet{
			{Label: "ban 01", Modes: []uint8{0, 2, 3}},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[0].Coverage(), "%coverage")
	}
}

// BenchmarkEnhancedProgram expands and simulates the Phase-3
// frequency-boosted program (E7).
func BenchmarkEnhancedProgram(b *testing.B) {
	core, prog, _ := fixtures(b)
	boosted := selftest.Boost(prog, map[isa.Op]bool{isa.OpShift: true, isa.OpMacP: true}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecs := selftest.Expand(boosted, selftest.ExpandOptions{Iterations: 100})
		res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Coverage(), "%coverage")
	}
}

// BenchmarkATPGBaseline runs the scaled sequential-ATPG baseline (E8).
func BenchmarkATPGBaseline(b *testing.B) {
	core, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bist.SequentialATPGOpts(core.Netlist, bist.SeqATPGOptions{Frames: 2, SampleEvery: 200, MaxBacktracks: 200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Coverage(), "%coverage")
	}
}

// BenchmarkPseudorandomBIST fault-simulates raw LFSR vectors (E9): a
// short run, and the paper's full 131,071-vector period, the long-run
// shape where few survivors replay for most of the stimulus.
func BenchmarkPseudorandomBIST(b *testing.B) {
	core, _, _ := fixtures(b)
	for _, count := range []int{4096, bist.FullPeriod} {
		b.Run(fmt.Sprintf("vectors=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vecs := bist.PseudorandomVectors(count, 1)
				res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.Coverage(), "%coverage")
			}
		})
	}
}

// BenchmarkGoodTraceFill records the fault-free trace of 8 192 LFSR
// vectors on dsp, one whole fill per op into a row TraceBits wide: the
// good-machine pass every compiled-kernel campaign runs ahead of its
// fault batches.
func BenchmarkGoodTraceFill(b *testing.B) {
	d, err := designs.Build("dsp")
	if err != nil {
		b.Fatal(err)
	}
	prog := logic.CompiledFor(d.Netlist)
	vecs := bist.PseudorandomVectors(8192, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := logic.NewGoodTrace(prog.TraceBits(), vecs.Len())
		fault.FillGoodTrace(d.Netlist, prog, vecs, tr, vecs.Len())
	}
	b.ReportMetric(float64(prog.TraceBits()), "row-bits")
}

// ---- Ablation benches (DESIGN.md "key design choices") ----

// BenchmarkSegmentLength sweeps the fault simulator's drop/repack
// segment length.
func BenchmarkSegmentLength(b *testing.B) {
	core, prog, _ := fixtures(b)
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 60})
	for _, seg := range []int{64, 256, 1024, 4096} {
		b.Run(segName(seg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{SegmentLen: seg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func segName(seg int) string {
	switch seg {
	case 64:
		return "seg64"
	case 256:
		return "seg256"
	case 1024:
		return "seg1024"
	default:
		return "seg4096"
	}
}

// BenchmarkFaultCollapseAblation compares simulating the collapsed list
// against the raw uncollapsed list.
func BenchmarkFaultCollapseAblation(b *testing.B) {
	core, prog, _ := fixtures(b)
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 40})
	all := fault.AllFaults(core.Netlist)
	collapsed, _ := fault.Collapse(core.Netlist, all)
	b.Run("collapsed", func(b *testing.B) {
		b.ReportMetric(float64(len(collapsed)), "faults")
		for i := 0; i < b.N; i++ {
			if _, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{Faults: collapsed}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncollapsed", func(b *testing.B) {
		b.ReportMetric(float64(len(all)), "faults")
		for i := 0; i < b.N; i++ {
			if _, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{Faults: all}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRegMaskAblation compares coverage with and without the LFSR2
// register-field rotation at equal vector counts (the template
// architecture's register-group trick).
func BenchmarkRegMaskAblation(b *testing.B) {
	core, prog, _ := fixtures(b)
	for _, disable := range []bool{false, true} {
		name := "masked"
		if disable {
			name = "unmasked"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 100, DisableRegMask: disable})
				res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{})
				if err != nil {
					b.Fatal(err)
				}
				det, tot := res.RegionCoverage(core.Netlist, "RegFile")
				b.ReportMetric(100*float64(det)/float64(tot), "%regfile")
				b.ReportMetric(100*res.Coverage(), "%coverage")
			}
		})
	}
}

// BenchmarkCompiledSim measures the raw 64-lane full-sweep simulation
// rate of the gate-level core (the reference kernel's inner loop).
func BenchmarkCompiledSim(b *testing.B) {
	core, _, _ := fixtures(b)
	w := logic.NewCompiledSim(logic.CompiledFor(core.Netlist))
	vecs := bist.PseudorandomVectors(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vecs {
			for bit, in := range core.Netlist.Inputs() {
				w.SetInput(in, v>>uint(bit)&1 == 1)
			}
			w.Settle()
			w.ClockAfterSettle()
		}
	}
	b.ReportMetric(float64(256*core.Netlist.NumGates())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mgate-evals/s")
}

// BenchmarkIRST fault-simulates the instruction-randomization baseline
// (E10).
func BenchmarkIRST(b *testing.B) {
	core, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vecs := bist.IRSTVectors(bist.IRSTOptions{Vectors: 4096, Seed: 1, OutEvery: 6})
		res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Coverage(), "%coverage")
	}
}

// BenchmarkDiagnose measures cause-effect diagnosis of one failing run.
func BenchmarkDiagnose(b *testing.B) {
	core, prog, _ := fixtures(b)
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 20})
	faults, _ := fault.Collapse(core.Netlist, fault.AllFaults(core.Netlist))
	observed := fault.FaultTrace(core.Netlist, vecs, faults[123])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := fault.DiagnoseOpts(core.Netlist, vecs, observed, faults, fault.DiagnoseOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkNDetect measures the n-detect quality metric on the base
// program.
func BenchmarkNDetect(b *testing.B) {
	core, prog, _ := fixtures(b)
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 50})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{NDetect: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.NDetectCoverage(5), "%5detect")
	}
}

// BenchmarkBridges measures sampled bridging-fault coverage of the base
// program (63 bridges per bit-parallel pass).
func BenchmarkBridges(b *testing.B) {
	core, prog, _ := fixtures(b)
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 5})
	bridges := fault.RandomBridges(core.Netlist, 20, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first, err := fault.SimulateBridges(core.Netlist, vecs, bridges)
		if err != nil {
			b.Fatal(err)
		}
		det := 0
		for _, at := range first {
			if at >= 0 {
				det++
			}
		}
		b.ReportMetric(100*float64(det)/float64(len(bridges)), "%coverage")
	}
}

// BenchmarkTransitionFaults measures at-speed transition-fault
// simulation of the base program (E12).
func BenchmarkTransitionFaults(b *testing.B) {
	core, prog, _ := fixtures(b)
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fault.SimulateTransitions(core.Netlist, vecs, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Coverage(), "%coverage")
	}
}

// podemSample is the fault sample one op of the PODEM benchmarks
// runs: 200 collapsed faults of the core, strided over the whole list
// as the atpg_podem bench workload samples them, under the full-scan
// bound at 200 backtracks. A fixed sample makes an op the same work at
// every b.N.
func podemSample(b *testing.B) (*logic.Netlist, atpg.Options, []fault.Fault) {
	core, _, _ := fixtures(b)
	n := core.Netlist
	opts := atpg.FullScan(n)
	opts.MaxBacktracks = 200
	faults, _ := fault.Collapse(n, fault.AllFaults(n))
	sample := make([]fault.Fault, 200)
	for k := range sample {
		sample[k] = faults[k*(len(faults)/len(sample))]
	}
	return n, opts, sample
}

// BenchmarkPODEM measures test generation rate on the core's
// combinational frame, one solver reused across the sample.
func BenchmarkPODEM(b *testing.B) {
	n, opts, sample := podemSample(b)
	solver := atpg.NewSolver(n, opts)
	var stats atpg.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range sample {
			stats.Merge(solver.Generate(f).Stats)
		}
	}
	faults := float64(b.N * len(sample))
	b.ReportMetric(faults/b.Elapsed().Seconds(), "faults/s")
	b.ReportMetric(float64(stats.GateEvals)/faults, "gate-evals/fault")
}

// BenchmarkPODEMOneShot measures the same sample through the one-shot
// atpg.Generate, which takes an idle solver from its pool, as the
// atpg_podem bench workload calls it. Every fault must end as on a
// reused solver, and as internal/atpg/testdata/podem_golden.txt.gz
// records: its dsp lines are this sample, written by the full-sweep
// reference engine, so a fault the solver itself gets wrong fails here
// too.
func BenchmarkPODEMOneShot(b *testing.B) {
	n, opts, sample := podemSample(b)
	golden := podemGoldenStatus(b)
	solver := atpg.NewSolver(n, opts)
	want := make([]atpg.Status, len(sample))
	for k, f := range sample {
		want[k] = solver.Generate(f).Status
		if key := podemKey(f); "DUA"[want[k]] != golden[key] {
			b.Fatalf("fault %s: reused solver %v, golden %c", key, want[k], golden[key])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, f := range sample {
			if st := atpg.Generate(n, f, opts).Status; st != want[k] {
				b.Fatalf("fault %s: one-shot %v, reused solver %v", podemKey(f), st, want[k])
			}
		}
	}
	b.ReportMetric(float64(b.N*len(sample))/b.Elapsed().Seconds(), "faults/s")
}

// podemKey names a fault as the PODEM golden does: site/stuck value.
func podemKey(f fault.Fault) string {
	sa := 0
	if f.SA1 {
		sa = 1
	}
	return fmt.Sprintf("%d/%d", f.Site, sa)
}

// podemGoldenStatus reads the status letter (D, U or A) of every dsp
// line of the PODEM golden, keyed by podemKey.
func podemGoldenStatus(b *testing.B) map[string]byte {
	f, err := os.Open("internal/atpg/testdata/podem_golden.txt.gz")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		b.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		b.Fatal(err)
	}
	status := map[string]byte{}
	for _, line := range strings.Split(string(data), "\n") {
		// "dsp <site>/<sa> <status> <decisions> ..."
		if fields := strings.Fields(line); len(fields) > 2 && fields[0] == "dsp" {
			status[fields[1]] = fields[2][0]
		}
	}
	return status
}
