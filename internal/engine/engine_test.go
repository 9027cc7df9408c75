package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/dspgate"
	"repro/internal/fault"
)

func testCore(t testing.TB) (*dspgate.Core, []fault.Fault) {
	t.Helper()
	d, err := GetDesign(designs.DefaultID)
	if err != nil {
		t.Fatal(err)
	}
	core, faults := d.Core, d.Faults
	return core, faults
}

// shortFaults trims the fault list under -short: the race detector
// multiplies per-batch simulation cost, and a prefix of the collapsed
// list exercises the same paths.
func shortFaults(faults []fault.Fault, n int) []fault.Fault {
	if testing.Short() && len(faults) > n {
		return faults[:n]
	}
	return faults
}

// TestSimulateMatchesSerial: a call that audits every window returns
// DetectedAt, Detections and the coverage curve byte-identical to an
// unaudited fault.Simulate on the dspgate netlist — the audit changes
// nothing it checks.
func TestSimulateMatchesSerial(t *testing.T) {
	core, faults := testCore(t)
	count := 1500
	if testing.Short() {
		// The race detector multiplies simulation cost.
		count = 300
		faults = shortFaults(faults, 1500)
	}
	vecs := bist.PseudorandomVectors(count, 1)
	serial, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{
		Faults: faults, SegmentLen: 256, ShadowSample: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{Faults: faults, SegmentLen: 256, ShadowSample: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.DetectedAt, serial.DetectedAt) {
		t.Fatal("DetectedAt diverges from serial")
	}
	if par.Detections != nil || serial.Detections != nil {
		t.Fatal("unexpected Detections")
	}
	if par.Cycles != serial.Cycles || par.Interrupted != serial.Interrupted {
		t.Fatalf("cycles/interrupted %d/%v vs serial %d/%v",
			par.Cycles, par.Interrupted, serial.Cycles, serial.Interrupted)
	}
	for cyc := 0; cyc <= serial.Cycles; cyc += 250 {
		if par.CoverageAt(cyc) != serial.CoverageAt(cyc) {
			t.Fatalf("coverage curve diverges at cycle %d", cyc)
		}
	}
}

// TestSimulateNDetectMatchesSerial extends the same to the n-detect
// counters, which the audit checks lane by lane.
func TestSimulateNDetectMatchesSerial(t *testing.T) {
	core, faults := testCore(t)
	count := 800
	if testing.Short() {
		count = 250
		faults = shortFaults(faults, 1000)
	}
	vecs := bist.PseudorandomVectors(count, 3)
	serial, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{
		Faults: faults, SegmentLen: 256, NDetect: 3, ShadowSample: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{Faults: faults, SegmentLen: 256, NDetect: 3, ShadowSample: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.DetectedAt, serial.DetectedAt) {
		t.Fatal("DetectedAt diverges")
	}
	if !reflect.DeepEqual(par.Detections, serial.Detections) {
		t.Fatal("Detections diverges")
	}
}

// TestSimulateNilFaultsCollapses checks the convenience path where the
// fault list is derived from the netlist, against serial with the same
// default.
func TestSimulateNilFaultsCollapses(t *testing.T) {
	core, faults := testCore(t)
	count := 600
	if testing.Short() {
		// Cannot trim the fault list here — the point is the nil-Faults
		// collapse — so trim the vector count instead.
		count = 128
	}
	vecs := bist.PseudorandomVectors(count, 1)
	par, err := Simulate(core.Netlist, vecs, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Faults) != len(faults) {
		t.Fatalf("collapsed %d faults, want %d", len(par.Faults), len(faults))
	}
	if par.Detected() == 0 {
		t.Fatal("no detections on the default fault list")
	}
}

// TestSimulateCancellationMidCampaign cancels from inside a progress
// callback: the call must stop at a segment boundary, the result must be
// marked interrupted, and the partial detections must all lie inside
// the applied prefix.
func TestSimulateCancellationMidCampaign(t *testing.T) {
	core, faults := testCore(t)
	segment := 512
	if testing.Short() {
		faults = shortFaults(faults, 1500)
		segment = 256
	}
	vecs := bist.PseudorandomVectors(50000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{
			Faults:     faults,
			SegmentLen: segment,
			Ctx:        ctx,
			Progress:   func(cycles, detected, remaining int) { cancel() },
		},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if res.Cycles <= 0 || res.Cycles >= vecs.Len() {
		t.Fatalf("interrupted run applied %d of %d cycles", res.Cycles, vecs.Len())
	}
	for i, c := range res.DetectedAt {
		if c >= 0 && int(c) >= res.Cycles {
			t.Fatalf("fault %d detected at cycle %d beyond applied prefix %d", i, c, res.Cycles)
		}
	}
	if res.Detected() == 0 {
		t.Fatal("interrupted run should still report the detections it made")
	}
}
