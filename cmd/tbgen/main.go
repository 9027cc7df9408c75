// Command tbgen emits the verification collateral the paper's Perl
// scripts produced: the gate-level core as structural Verilog plus a
// self-checking testbench that applies an expanded self-test program and
// asserts the fault-free responses. Feed both files to any Verilog
// simulator to confirm the fault-simulation model behaves correctly.
//
//	tbgen -iters 3 -o core        # writes core.v and core_tb.v
//	tbgen -prog prog.asm -iters 10 -o core
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/selftest"
)

func main() {
	progPath := flag.String("prog", "", "program file (.once/.loop assembler, as selftest.ParseProgram reads it); default: generate one")
	iters := flag.Int("iters", 2, "loop iterations to expand into the testbench")
	out := flag.String("o", "dsp_core", "output basename (<o>.v and <o>_tb.v)")
	obsCfg := obs.Flags()
	flag.Parse()

	rt := obsCfg.MustStart()
	defer rt.Close()
	span := rt.Span("tbgen")
	defer span.End()

	var prog *selftest.Program
	if *progPath != "" {
		src, err := os.ReadFile(*progPath)
		if err != nil {
			fail(err)
		}
		prog, err = selftest.ParseProgram(string(src))
		if err != nil {
			fail(err)
		}
	} else {
		eng := metrics.NewEngine(metrics.Config{CTrials: 8000, OGoodRuns: 6, Seed: 1})
		prog, _ = selftest.NewGenerator(eng).WithObs(span).Generate()
	}

	core, err := dspgate.Build(dspgate.Options{})
	if err != nil {
		fail(err)
	}
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: *iters})
	expected := fault.ExpectedOutputs(core.Netlist, vecs)

	vf, err := os.Create(*out + ".v")
	if err != nil {
		fail(err)
	}
	defer vf.Close()
	if err := logic.WriteVerilog(vf, core.Netlist, "dsp_core"); err != nil {
		fail(err)
	}
	tf, err := os.Create(*out + "_tb.v")
	if err != nil {
		fail(err)
	}
	defer tf.Close()
	if err := logic.WriteTestbench(tf, core.Netlist, "dsp_core", vecs, expected); err != nil {
		fail(err)
	}
	span.Add("vectors", int64(len(vecs)))
	span.Add("loop_instrs", int64(prog.Len()))
	fmt.Printf("wrote %s.v and %s_tb.v (%d vectors, %d-instruction loop × %d iterations)\n",
		*out, *out, len(vecs), prog.Len(), *iters)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tbgen:", err)
	os.Exit(1)
}
