// Command faultsim fault-simulates a stimulus stream against a design
// from the registry (the gate-level DSP core by default) and reports
// stuck-at coverage, per-component breakdowns and an optional
// coverage-vs-vectors curve.
//
// -design selects the circuit: "dsp" (default), a generated family
// member like "fam/w8r4s1l1p2", or a bundled netlist like "bench/c432".
// The stream comes either from a self-test program file (assembler
// syntax, looped -iters times through the template architecture; dsp
// only) or from pseudorandom-BIST vectors (-bist; width-matched to the
// design's input port).
//
// Progress renders as a throttled status line on stderr; -trace writes
// the structured NDJSON event stream, -v adds span/summary lines and
// -cpuprofile captures the simulator's hot loops; the simulation itself
// spends every core. Ctrl-C stops the run at the next segment boundary
// and still prints the partial summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/bist"
	"repro/internal/chaos"
	"repro/internal/designs"
	"repro/internal/dspgate"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/selftest"
)

func main() {
	designID := flag.String("design", "dsp", "design to simulate: dsp, fam/<params>, or bench/<name>")
	progPath := flag.String("prog", "", "self-test program file (assembler syntax; dsp design only)")
	iters := flag.Int("iters", 1000, "loop iterations through the program")
	useBist := flag.Bool("bist", false, "use raw pseudorandom LFSR vectors instead of a program")
	count := flag.Int("count", bist.FullPeriod, "number of BIST vectors with -bist")
	curve := flag.Bool("curve", false, "print a coverage-vs-vectors curve")
	quality := flag.Bool("quality", false, "grade all fault models (stuck-at, n-detect, transition, bridging, path delay)")
	seed := flag.Int64("seed", 1, "LFSR seed")
	deadline := flag.Duration("deadline", 0, "overall run deadline; the simulation stops at the next segment boundary and prints partial results (0 = none)")
	obsCfg := obs.Flags()
	chaosCfg := chaos.Flags()
	flag.Parse()

	rt := obsCfg.MustStart()
	defer rt.Close()
	if err := chaosCfg.Arm(); err != nil {
		fail(err)
	}

	// The status line always renders; -v routes it through the runtime's
	// renderer (alongside span/summary lines), so only add one here when
	// -v is off.
	sink := rt.Sink()
	if !obsCfg.Verbose {
		sink = obs.Combine(sink, obs.NewRenderer(os.Stderr))
	}

	// Ctrl-C cancels at the next segment boundary; the partial result
	// still carries the curve and counts accumulated so far. -deadline
	// bounds the whole run the same way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	d, err := engine.GetDesign(*designID)
	if err != nil {
		fail(err)
	}

	var vecs fault.Vectors
	switch {
	case *useBist:
		if d.InstructionDriven() {
			vecs = bist.PseudorandomVectors(*count, uint64(*seed))
		} else {
			vecs = designs.PseudorandomVectors(len(d.Netlist.Inputs()), *count, uint64(*seed))
		}
	case *progPath != "":
		if !d.InstructionDriven() {
			fail(fmt.Errorf("design %s has no instruction port; -prog needs -design dsp", d.ID))
		}
		src, err := os.ReadFile(*progPath)
		if err != nil {
			fail(err)
		}
		prog, err := isa.Assemble(string(src))
		if err != nil {
			fail(err)
		}
		vecs = selftest.Expand(&selftest.Program{Loop: prog},
			selftest.ExpandOptions{Iterations: *iters, Seed1: uint64(*seed)})
	default:
		fail(fmt.Errorf("need -prog or -bist"))
	}

	fmt.Printf("design %s (hash %s): %+v\n", d.ID, d.Hash, d.Netlist.Stats())
	fmt.Printf("simulating %d vectors...\n", vecs.Len())
	if *quality {
		rep, err := fault.Quality(d.Netlist, vecs, fault.QualityOptions{
			NDetect:      5,
			BridgeSample: 50,
			PathPairs:    200,
			Seed:         *seed,
			Sink:         sink,
		})
		if err != nil {
			fail(err)
		}
		fmt.Print(rep)
		return
	}
	res, err := engine.Simulate(d.Netlist, vecs, engine.SimOptions{
		SimOptions: fault.SimOptions{
			Faults: d.Faults,
			Sink:   sink,
			Ctx:    ctx,
		},
	})
	if err != nil {
		fail(err)
	}
	if res.Interrupted {
		fmt.Printf("\ninterrupted after %d of %d vectors — partial results:\n",
			res.Cycles, vecs.Len())
	}
	fmt.Printf("\nfault coverage: %.2f%% (%d/%d collapsed faults)\n",
		100*res.Coverage(), res.Detected(), len(res.Faults))
	// Component regions are a property of the DSP core's build; other
	// designs report the flat total only.
	if d.InstructionDriven() {
		fmt.Println("\nper-component coverage:")
		for _, region := range dspgate.ComponentRegions {
			det, tot := res.RegionCoverage(d.Netlist, region)
			if tot == 0 {
				continue
			}
			fmt.Printf("  %-12s %6d faults  %6.2f%%\n", region, tot, 100*float64(det)/float64(tot))
		}
	}
	if *curve {
		fmt.Println("\ncoverage vs vectors:")
		for v := 1024; v < res.Cycles; v *= 2 {
			fmt.Printf("  %8d  %.2f%%\n", v, 100*res.CoverageAt(v))
		}
		fmt.Printf("  %8d  %.2f%%\n", res.Cycles, 100*res.Coverage())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faultsim:", err)
	os.Exit(1)
}
