// MISR self-test: the complete in-field story of the paper's Figure 2 —
// the template architecture feeds the core, the core's output stream is
// compacted into a MISR signature, and a faulty core is caught by a
// signature mismatch with no per-cycle golden trace.
//
//	go run ./examples/misr_selftest
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/selftest"
)

func main() {
	gate, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		log.Fatal(err)
	}
	eng := metrics.NewEngine(metrics.Config{CTrials: 12000, OGoodRuns: 8, Seed: 1})
	prog, _ := selftest.NewGenerator(eng).Generate()
	vecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: 200})

	// The core's 8-bit output stream, optionally with one injected
	// fault, compacted into a 16-bit MISR.
	signature := func(f *fault.Fault) uint64 {
		sig, err := selftest.Signature(gate.Netlist, vecs, selftest.SignatureOptions{Fault: f})
		if err != nil {
			log.Fatal(err)
		}
		return sig
	}

	// Golden signature from the fault-free machine.
	golden := signature(nil)
	fmt.Printf("golden MISR signature after %d cycles: %04x\n", vecs.Len(), golden)

	// Inject a handful of random stuck-at faults; every one must flip
	// the signature (the MISR aliasing probability at 16 bits is 2^-16).
	faults, _ := fault.Collapse(gate.Netlist, fault.AllFaults(gate.Netlist))
	rng := rand.New(rand.NewSource(7))
	caught, missed, silent := 0, 0, 0
	for i := 0; i < 12; i++ {
		f := faults[rng.Intn(len(faults))]
		sig := signature(&f)
		switch {
		case sig != golden:
			caught++
			fmt.Printf("  fault %-14s signature %04x  -> CAUGHT\n", f, sig)
		default:
			// Either undetectable by this test length or MISR-aliased;
			// distinguish with the exact per-cycle comparison.
			res, err := fault.Simulate(gate.Netlist, vecs, fault.SimOptions{Faults: []fault.Fault{f}})
			if err != nil {
				log.Fatal(err)
			}
			if res.Detected() == 1 {
				missed++
				fmt.Printf("  fault %-14s signature %04x  -> ALIASED (detected at outputs, masked in MISR)\n", f, sig)
			} else {
				silent++
				fmt.Printf("  fault %-14s signature %04x  -> not excited by this test length\n", f, sig)
			}
		}
	}
	fmt.Printf("\n%d caught, %d aliased, %d unexcited\n", caught, missed, silent)
}
