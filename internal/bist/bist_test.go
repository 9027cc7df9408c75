package bist

import (
	"testing"

	"repro/internal/dspgate"
	"repro/internal/fault"
)

func TestPseudorandomVectors(t *testing.T) {
	vecs := PseudorandomVectors(1000, 1)
	seen := map[uint64]bool{}
	for _, v := range vecs {
		if v == 0 || v >= 1<<17 {
			t.Fatalf("vector %x out of 17-bit non-zero range", v)
		}
		seen[v] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("LFSR repeated within 1000 of %d states", FullPeriod)
	}
}

func TestSequentialATPGBaselineCollapses(t *testing.T) {
	if testing.Short() {
		t.Skip("unrolled ATPG on the full core is slow")
	}
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SequentialATPGOpts(core.Netlist, SeqATPGOptions{Frames: 3, SampleEvery: 40, MaxBacktracks: 300})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seq-ATPG baseline: %d faults tried, %d tests, %d untestable, %d aborted, coverage %.2f%%",
		res.FaultsTried, res.TestsFound, res.Untestable, res.Aborted, 100*res.Coverage())
	// The paper's point: sequential ATPG collapses on the pipelined core
	// (8.51% in their flow). Anything below 30% demonstrates the shape;
	// the SBST program reaches >90% on the same netlist.
	if res.Coverage() > 0.30 {
		t.Errorf("sequential ATPG coverage %.2f%% unexpectedly high", 100*res.Coverage())
	}
	if res.FaultsTried == 0 {
		t.Fatal("no faults tried")
	}
}

func TestPseudorandomBISTShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fault simulation of the full core is slow")
	}
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	vecs := PseudorandomVectors(4096, 1)
	res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pseudorandom BIST: %.2f%% after %d vectors", 100*res.Coverage(), vecs.Len())
	// Raw LFSR words do exercise the core (most words decode to real
	// instructions), but with no load/out structure coverage lags the
	// SBST program at equal vector counts.
	if res.Coverage() < 0.3 || res.Coverage() > 0.98 {
		t.Errorf("coverage %.2f%% outside plausible band", 100*res.Coverage())
	}
}
