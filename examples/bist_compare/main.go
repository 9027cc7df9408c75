// BIST comparison: the paper's Section 3.5 argument in miniature — the
// metrics-driven self-test program against raw pseudorandom BIST at
// equal vector counts, as a coverage-vs-vectors table.
//
//	go run ./examples/bist_compare
package main

import (
	"fmt"
	"log"

	"repro/internal/bist"
	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/selftest"
)

func main() {
	gate, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		log.Fatal(err)
	}

	const vectors = 16384

	prog := selftest.PaperProgram()
	iters := vectors/prog.Len() + 1
	sbstVecs := selftest.Expand(prog, selftest.ExpandOptions{Iterations: iters})[:vectors]

	bistVecs := bist.PseudorandomVectors(vectors, 1)

	fmt.Printf("fault-simulating SBST program (%d-instruction loop)...\n", prog.Len())
	sbst, err := fault.Simulate(gate.Netlist, sbstVecs, fault.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fault-simulating raw 17-bit LFSR BIST...")
	raw, err := fault.Simulate(gate.Netlist, bistVecs, fault.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%10s %12s %12s\n", "vectors", "SBST", "raw BIST")
	for v := 512; v <= vectors; v *= 2 {
		fmt.Printf("%10d %11.2f%% %11.2f%%\n", v, 100*sbst.CoverageAt(v), 100*raw.CoverageAt(v))
	}
	fmt.Printf("\nSBST reaches %.2f%%; raw BIST %.2f%% — the LFSR \"does not take into\n",
		100*sbst.Coverage(), 100*raw.Coverage())
	fmt.Println("account the core's present state or behavior\" (paper, Section 3.5), so it")
	fmt.Println("never strings together the load → compute → out patterns deep faults need.")
}
