// Command diagnose demonstrates the post-self-test diagnosis flow: it
// injects a hidden stuck-at fault into the gate-level core, runs the
// paper's self-test program, and — given only the observed failing
// output trace — ranks candidate faults by cause-effect trace matching.
// In production the observed trace comes from the tester after a MISR
// signature mismatch triggers per-cycle capture.
//
//	diagnose -iters 60 -seed 7
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/dspgate"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/selftest"
)

func main() {
	iters := flag.Int("iters", 60, "self-test loop iterations")
	seed := flag.Int64("seed", 7, "selects the hidden fault")
	top := flag.Int("top", 5, "candidates to print")
	obsCfg := obs.Flags()
	flag.Parse()

	rt := obsCfg.MustStart()
	defer rt.Close()
	span := rt.Span("diagnose")
	defer span.End()

	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		fail(err)
	}
	vecs := selftest.Expand(selftest.PaperProgram(), selftest.ExpandOptions{Iterations: *iters})

	faults, _ := fault.Collapse(core.Netlist, fault.AllFaults(core.Netlist))
	rng := rand.New(rand.NewSource(*seed))
	hidden := faults[rng.Intn(len(faults))]
	if name := core.Netlist.NameOf(hidden.Site); name != "" {
		fmt.Printf("hidden fault: %s (%s)\n", hidden, name)
	} else {
		fmt.Printf("hidden fault: %s\n", hidden)
	}

	observed := fault.FaultTrace(core.Netlist, vecs, hidden)
	good := fault.ExpectedOutputs(core.Netlist, vecs)
	failures := 0
	for i := range observed {
		if observed[i] != good[i] {
			failures++
		}
	}
	if failures == 0 {
		fmt.Println("fault not excited by this test length — increase -iters")
		return
	}
	fmt.Printf("observed %d failing cycles of %d\n", failures, len(observed))
	span.Add("failing_cycles", int64(failures))

	// Stage 1 goes through engine.Simulate instead of DiagnoseOpts' own
	// fault.Simulate call (both spend every core) for the call
	// supervisor's retry, quarantine of a diverging kernel, and the
	// -trace sink.
	presim, err := engine.Simulate(core.Netlist, vecs, engine.SimOptions{
		SimOptions: fault.SimOptions{Faults: faults, Sink: rt.Sink()},
	})
	if err != nil {
		fail(err)
	}
	cands, err := fault.DiagnoseOpts(core.Netlist, vecs, observed, faults,
		fault.DiagnoseOptions{Presim: presim})
	if err != nil {
		fail(err)
	}
	span.Add("candidates", int64(len(cands)))
	fmt.Printf("%d candidates; top %d:\n", len(cands), *top)
	for i, c := range cands {
		if i >= *top {
			break
		}
		marker := " "
		if c.Fault == hidden {
			marker = "← hidden fault"
		}
		fmt.Printf("  %2d. %-16s exact=%-5v matched=%d missed=%d mispredicted=%d  %s\n",
			i+1, c.Fault, c.ExactMatch, c.MatchedFailures, c.MissedFailures, c.Mispredicts, marker)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "diagnose:", err)
	os.Exit(1)
}
