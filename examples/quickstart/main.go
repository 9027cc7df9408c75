// Quickstart: generate a self-test program for the DSP core, expand it
// through the template architecture, fault-simulate the gate-level core
// and print the achieved stuck-at coverage.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/selftest"
)

func main() {
	// 1. Measure instruction-level testability metrics and derive the
	//    self-test program (Phases 1–2). Small trial counts keep this
	//    example fast; see cmd/experiments for paper-scale settings.
	eng := metrics.NewEngine(metrics.Config{CTrials: 12000, OGoodRuns: 8, Seed: 1})
	gen := selftest.NewGenerator(eng)
	prog, report := gen.Generate()
	fmt.Printf("generated self-test loop (%d instructions):\n\n%s\n", prog.Len(), prog)
	fmt.Println(report.Summary())

	// 2. Expand the template: LFSR1 fills load immediates, LFSR2 rotates
	//    register fields each iteration.
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 500})
	fmt.Printf("expanded to %d test vectors\n", vecs.Len())

	// 3. Build the gate-level core and fault-simulate.
	gate, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		log.Fatal(err)
	}
	st := gate.Netlist.Stats()
	fmt.Printf("gate-level core: %d gates, %d flip-flops, %d levels\n", st.Gates, st.DFFs, st.Levels)

	res, err := fault.Simulate(gate.Netlist, vecs, fault.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stuck-at fault coverage: %.2f%% (%d of %d collapsed faults)\n",
		100*res.Coverage(), res.Detected(), len(res.Faults))
	for _, region := range []string{"Multiplier", "Shifter", "AddSub", "RegFile"} {
		det, tot := res.RegionCoverage(gate.Netlist, region)
		fmt.Printf("  %-10s %5d faults  %6.2f%%\n", region, tot, 100*float64(det)/float64(tot))
	}
}
