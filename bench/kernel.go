package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/artifacts"
	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/selftest"
)

// oracleStride is the fault sample the reference kernel re-simulates:
// one fault in sixteen, starting at an offset the seed picks.
const oracleStride = 16

// kernelCase is one (design, stimulus) pair the kernel workloads
// simulate, with the reference kernel's answer on its fault sample.
type kernelCase struct {
	name   string
	d      *designs.Design
	vecs   fault.Vectors
	sample []int   // indices into d.Faults
	want   []int32 // reference detection cycle per sampled fault
}

func buildDesign(e *env, id string) *designs.Design {
	var d *designs.Design
	var err error
	took := e.tr.timed("designs.Build", id, 0, func() { d, err = designs.Build(id) })
	if err != nil {
		e.fatal(err)
	}
	e.set("designs.build_ms", e.values["designs.build_ms"]+ms(took))
	return d
}

// bistVectors is the stimulus a fault_sim job with a bist source gets:
// the paper's 17-bit LFSR on the dsp core, a width-matched LFSR on
// every other design.
func bistVectors(d *designs.Design, count int, seed uint64) fault.Vectors {
	if d.InstructionDriven() {
		return bist.PseudorandomVectors(count, seed)
	}
	return designs.PseudorandomVectors(len(d.Netlist.Inputs()), count, seed)
}

// newKernelCase runs the reference kernel on the fault sample. It
// returns the case and the reference run's rate in vectors/s.
func newKernelCase(e *env, name string, d *designs.Design, vecs fault.Vectors) (*kernelCase, float64) {
	c := &kernelCase{name: name, d: d, vecs: vecs}
	var sampled []fault.Fault
	for i := int(e.derive(7) % oracleStride); i < len(d.Faults); i += oracleStride {
		c.sample = append(c.sample, i)
		sampled = append(sampled, d.Faults[i])
	}
	var ref *fault.Result
	var err error
	took := e.tr.timed("fault.Simulate/reference", name, 0, func() {
		ref, err = fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: sampled, Kernel: fault.KernelReference})
	})
	if err != nil {
		e.fatal(err)
	}
	c.want = ref.DetectedAt
	return c, float64(vecs.Len()) / took.Seconds()
}

// agrees compares a full result with the reference sample and, on seed
// 1, its headline counts with golden.json.
func (c *kernelCase) agrees(e *env, res *fault.Result) bool {
	ok := e.check(len(res.DetectedAt) == len(c.d.Faults) && res.Cycles == c.vecs.Len(),
		"%s: %d faults over %d cycles, want %d over %d", c.name, len(res.DetectedAt), res.Cycles, len(c.d.Faults), c.vecs.Len())
	if ok {
		for k, i := range c.sample {
			if res.DetectedAt[i] != c.want[k] {
				ok = e.check(false, "%s: fault %d detected at cycle %d, reference kernel says %d", c.name, i, res.DetectedAt[i], c.want[k])
				break
			}
		}
	}
	return e.stat(c.name+".detected_of_total", fmt.Sprintf("%d/%d", res.Detected(), len(res.DetectedAt))) && ok
}

// simulate is the timed op of both kernel workloads: the library call
// with one worker and no artifact store, so every op compiles and
// simulates the good machine again. It returns the op's time in
// seconds cut at the simulator's segment boundaries (its public
// Progress hook), for sliceMedians.
func (c *kernelCase) simulate(e *env, opID string, parent int, opts engine.SimOptions) ([]float64, bool) {
	opts.Faults = c.d.Faults
	start := time.Now()
	last := start
	var slices []float64
	cut := func() {
		now := time.Now()
		slices = append(slices, now.Sub(last).Seconds())
		last = now
	}
	opts.Progress = func(_, _, _ int) { cut() }
	res, err := engine.Simulate(c.d.Netlist, c.vecs, opts)
	cut()
	e.tr.add("engine.Simulate", opID, parent, start, last, nil)
	if err != nil {
		return slices, e.check(false, "%s: %v", c.name, err)
	}
	return slices, c.agrees(e, res)
}

var coldSerial = engine.SimOptions{Workers: 1, NoArtifacts: true}

// laneSweep times the op against a primed private artifact store: no
// compile and no good-machine cycle, so what is left is the fault lanes
// sweeping the recorded trace.
func (c *kernelCase) laneSweep(e *env) float64 {
	opts := engine.SimOptions{Workers: 1, DesignHash: c.d.Hash, Artifacts: artifacts.NewStore(0)}
	c.simulate(e, c.name+"/prime", 0, opts)
	good := obs.Default().Counter("faultsim.good_cycles")
	before := good.Load()
	var ops [][]float64
	for i := 0; i < 2; i++ {
		slices, _ := c.simulate(e, fmt.Sprintf("%s/warm-%d", c.name, i), 0, opts)
		ops = append(ops, slices)
	}
	e.check(good.Load() == before, "%s: primed store still simulated %d good-machine cycles", c.name, good.Load()-before)
	return sliceMedians(ops)
}

func runKernelTable1(e *env) {
	// Every op simulates its own LFSR window: which 8 192 of the 131 071
	// states a seed selects moves the op's time by several percent, and
	// the median over windows, segment by segment, is the time of a
	// typical one. Each window's reference run happens before its op,
	// outside the timing.
	var d *designs.Design
	window := func(n int) (*kernelCase, float64) {
		return newKernelCase(e, fmt.Sprintf("dsp-%d", n), d, bist.PseudorandomVectors(8192, e.derive(uint64(10+n))))
	}
	var c *kernelCase
	e.setup(1, func() {
		d = buildDesign(e, designs.DefaultID)
		var refRate float64
		c, refRate = window(0)
		e.set("fault.reference_vectors_per_s", refRate)
		c.simulate(e, "warm-up", 0, coldSerial)
	})

	evals := obs.Default().Counter("faultsim.gate_evals")
	var evalsTimed int64
	start := time.Now()
	var ops [][]float64
	for n := 0; e.more(n, 3, e.deadline(start)); n++ {
		if n > 0 {
			c, _ = window(n)
		}
		evals0 := evals.Load()
		slices, ok := c.simulate(e, fmt.Sprintf("op-%d", n), 0, coldSerial)
		evalsTimed += evals.Load() - evals0
		e.op(ok)
		ops = append(ops, slices)
	}
	cycles := float64(c.vecs.Len())
	serial := sliceMedians(ops)
	e.setN("op_p50_ms", 1000*serial, len(ops))
	e.setN("work_per_s", cycles/serial, len(ops))
	if !e.traced() {
		return
	}

	e.set("logic.gate_evals_per_cycle", float64(evalsTimed)/(cycles*float64(len(ops))))
	e.set("fault.lane_words", float64(fault.EffectiveLaneWords(fault.SimOptions{}, len(d.Faults))))
	var prog *logic.Compiled
	e.set("logic.compile_ms", ms(e.tr.timed("logic.Compile", "layers", 0, func() { prog = logic.Compile(d.Netlist) })))
	trace := logic.NewGoodTrace(d.Netlist.NumNets(), c.vecs.Len())
	e.set("fault.good_trace_fill_ms", ms(e.tr.timed("fault.FillGoodTrace", "layers", 0, func() {
		fault.FillGoodTrace(d.Netlist, prog, c.vecs, trace, c.vecs.Len())
	})))
	e.set("fault.lane_sweep_s", c.laneSweep(e))

	// The same op sharded over every core, with and without the shadow
	// re-simulation the sharded path adds.
	procs := runtime.GOMAXPROCS(0)
	sharded := func(label string, shadow float64) float64 {
		var ops [][]float64
		for i := 0; i < 2; i++ {
			slices, _ := c.simulate(e, fmt.Sprintf("%s-%d", label, i), 0,
				engine.SimOptions{Workers: procs, NoArtifacts: true, ShadowSample: shadow})
			ops = append(ops, slices)
		}
		return sliceMedians(ops)
	}
	withShadow, noShadow := sharded("sharded", 0), sharded("sharded-noshadow", -1)
	e.set("engine.sharded_vectors_per_s", cycles/withShadow)
	e.set("engine.parallel_efficiency", serial/withShadow/float64(procs))
	e.set("engine.shadow_overhead_pct", 100*(withShadow-noShadow)/noShadow)
}

// zooProgram generates the Phase 1/2 self-test program the zoo's third
// member expands. The metrics engine runs at a reduced trial count: the
// member needs instruction-shaped stimulus, not the paper's table.
func zooProgram(e *env) *selftest.Program {
	var prog *selftest.Program
	e.tr.timed("selftest.Generate", "zoo-program", 0, func() {
		eng := metrics.NewEngine(metrics.Config{CTrials: 500, OGoodRuns: 1, Seed: 33})
		prog, _ = selftest.NewGenerator(eng).Generate()
	})
	return prog
}

func runKernelZoo(e *env) {
	var members []*kernelCase
	e.setup(1, func() {
		c880 := buildDesign(e, "bench/c880")
		fam := buildDesign(e, "fam/w16r8s1l1p2")
		dsp := buildDesign(e, designs.DefaultID)
		program := selftest.Expand(zooProgram(e), selftest.ExpandOptions{
			Iterations: 100, Seed1: e.derive(3), Seed2: e.derive(4),
		})
		for _, m := range []struct {
			name string
			d    *designs.Design
			vecs fault.Vectors
		}{
			{"c880", c880, bistVectors(c880, 32768, e.derive(1))},
			{"fam", fam, bistVectors(fam, 8192, e.derive(2))},
			{"selftest", dsp, program},
		} {
			c, _ := newKernelCase(e, m.name, m.d, m.vecs)
			c.simulate(e, "warm-up", 0, coldSerial)
			members = append(members, c)
		}
	})

	evals := obs.Default().Counter("faultsim.gate_evals")
	evals0 := evals.Load()
	start := time.Now()
	ops := make([][][]float64, len(members))
	passes := 0
	for ; e.more(passes, 2, e.deadline(start)); passes++ {
		opID := fmt.Sprintf("pass-%d", passes)
		pass := e.tr.open("pass", opID, 0, time.Now())
		for i, c := range members {
			slices, ok := c.simulate(e, opID, pass, coldSerial)
			e.op(ok)
			ops[i] = append(ops[i], slices)
		}
		e.tr.close(pass, time.Now(), nil)
	}
	var rates []float64
	var cycles, pass float64
	for i, c := range members {
		took := sliceMedians(ops[i])
		rates = append(rates, float64(c.vecs.Len())/took)
		cycles += float64(c.vecs.Len())
		pass += took
	}
	e.setN("op_p50_ms", 1000*pass, passes)
	e.setN("work_per_s", geomean(rates), passes)
	if !e.traced() {
		return
	}

	e.set("logic.gate_evals_per_cycle", float64(evals.Load()-evals0)/(cycles*float64(passes)))
	var sweep float64
	for i, c := range members {
		e.set("fault.zoo_"+c.name+"_vectors_per_s", rates[i])
		e.set("fault.zoo_"+c.name+"_lane_words", float64(fault.EffectiveLaneWords(fault.SimOptions{}, len(c.d.Faults))))
		sweep += c.laneSweep(e)
	}
	e.set("fault.lane_sweep_s", sweep)
}
