package fault_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bist"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

// The compiled kernel fills the fault-free machine one segment ahead of
// the fault batches, on a goroutine of its own. These tests pin that
// filler's lifecycle on the dsp core: a panic in the vector source
// reaches the caller, a run that ends early counts only the segments it
// replayed and leaves no goroutine behind, and a cancelled run stops at
// the boundary it was cancelled at.

func dspDesign(t *testing.T) *designs.Design {
	t.Helper()
	d, err := engine.GetDesign(designs.DefaultID)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// everyNth samples the fault list, to keep the runs short.
func everyNth(faults []fault.Fault, n int) []fault.Fault {
	var out []fault.Fault
	for i := 0; i < len(faults); i += n {
		out = append(out, faults[i])
	}
	return out
}

// TestFillerPanicReachesCaller: a vector source that panics on the
// filler's goroutine panics Simulate on the caller's, where it can be
// recovered; the engine's shard supervisor turns it into an error after
// its retry, and the process survives both.
func TestFillerPanicReachesCaller(t *testing.T) {
	d := dspDesign(t)
	vecs := bist.PseudorandomVectors(1024, 5)
	const boom = "vector source failed at cycle 700"
	seq := fault.FuncSeq{N: vecs.Len(), Fn: func(c int) uint64 {
		if c == 700 {
			panic(boom)
		}
		return vecs[c]
	}}
	faults := everyNth(d.Faults, 16)

	got := func() (p any) {
		defer func() { p = recover() }()
		fault.Simulate(d.Netlist, seq, fault.SimOptions{Faults: faults})
		return nil
	}()
	if got != boom {
		t.Fatalf("fault.Simulate panicked with %v, want %q", got, boom)
	}

	retries := obs.Default().Counter("engine.shard_retries")
	before := retries.Load()
	_, err := engine.Simulate(d.Netlist, seq, engine.SimOptions{
		SimOptions: fault.SimOptions{Faults: faults},
		Workers:    2,
	})
	if err == nil || !strings.Contains(err.Error(), boom) {
		t.Fatalf("engine.Simulate error = %v, want one carrying %q", err, boom)
	}
	if n := retries.Load() - before; n != 2 {
		t.Fatalf("engine.shard_retries moved by %d, want 2 (one retry per shard)", n)
	}
}

// TestFillerEarlyExitCountsReplayedCycles: when every fault is detected
// in the first 64-cycle segment, the run counts those 64 good-machine
// cycles and not the segment the filler had filled ahead, and the
// filler is gone when Simulate returns.
func TestFillerEarlyExitCountsReplayedCycles(t *testing.T) {
	d := dspDesign(t)
	vecs := bist.PseudorandomVectors(4096, 9)
	full, err := fault.Simulate(d.Netlist, vecs[:64], fault.SimOptions{Faults: everyNth(d.Faults, 4)})
	if err != nil {
		t.Fatal(err)
	}
	var early []fault.Fault
	for i, at := range full.DetectedAt {
		if at >= 0 {
			early = append(early, full.Faults[i])
		}
	}
	if len(early) < 100 {
		t.Fatalf("only %d faults detected in the first 64 cycles", len(early))
	}

	// The first Progress call waits until the filler has asked for the
	// last vector of the second segment [64, 192): that segment is then
	// filled, or being filled, and is never replayed.
	ahead := make(chan struct{})
	var once sync.Once
	seq := fault.FuncSeq{N: vecs.Len(), Fn: func(c int) uint64 {
		if c == 191 {
			once.Do(func() { close(ahead) })
		}
		return vecs[c]
	}}
	good := obs.Default().Counter("faultsim.good_cycles")
	baseline := runtime.NumGoroutine()
	before := good.Load()
	res, err := fault.Simulate(d.Netlist, seq, fault.SimOptions{
		Faults: early,
		Progress: func(cycles, _, _ int) {
			select {
			case <-ahead:
			case <-time.After(10 * time.Second):
				t.Errorf("filler never reached cycle 191 by the boundary at %d", cycles)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() != len(early) {
		t.Fatalf("detected %d of %d", res.Detected(), len(early))
	}
	if n := good.Load() - before; n != 64 {
		t.Fatalf("faultsim.good_cycles moved by %d, want the 64 replayed", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFillerCancelStopsAtBoundary: a run cancelled from its Progress
// callback stops at that segment boundary, with the uncancelled run's
// detections before it and none after.
func TestFillerCancelStopsAtBoundary(t *testing.T) {
	d := dspDesign(t)
	vecs := bist.PseudorandomVectors(2048, 13)
	faults := everyNth(d.Faults, 8)
	whole, err := fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boundary := 0
	res, err := fault.Simulate(d.Netlist, vecs, fault.SimOptions{
		Faults: faults,
		Ctx:    ctx,
		Progress: func(cycles, _, _ int) {
			if boundary == 0 && cycles >= 400 {
				boundary = cycles
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Cycles != boundary || boundary == 0 || boundary >= vecs.Len() {
		t.Fatalf("Interrupted=%v Cycles=%d, want an interrupted run of %d cycles", res.Interrupted, res.Cycles, boundary)
	}
	for i, at := range whole.DetectedAt {
		want := at
		if int(at) >= boundary {
			want = -1
		}
		if res.DetectedAt[i] != want {
			t.Fatalf("fault %d: detected at %d, want %d (whole run %d, boundary %d)", i, res.DetectedAt[i], want, at, boundary)
		}
	}
}

// TestSimulateRejectsIncompleteTrace: a pinned trace must record every
// cycle of the run; the kernel fills only traces of its own.
func TestSimulateRejectsIncompleteTrace(t *testing.T) {
	d := dspDesign(t)
	vecs := bist.PseudorandomVectors(1024, 3)
	tr := logic.NewGoodTrace(d.Netlist.NumNets(), 500)
	fault.FillGoodTrace(d.Netlist, nil, vecs, tr, 500)
	_, err := fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: everyNth(d.Faults, 64), Trace: tr})
	want := fmt.Sprintf("fault: SimOptions.Trace records 500 of %d cycles", vecs.Len())
	if err == nil || err.Error() != want {
		t.Fatalf("Simulate error = %v, want %q", err, want)
	}
}
