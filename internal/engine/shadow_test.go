package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bist"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/obs"
)

// armChaos arms a chaos spec for one test, disarming on cleanup.
func armChaos(t *testing.T, spec string, seed int64) {
	t.Helper()
	cfg, err := chaos.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(cfg)
	t.Cleanup(chaos.Disarm)
}

func counter(name string) int64 { return obs.Default().Counter(name).Load() }

// referenceResult computes the oracle result on the serial reference
// kernel with chaos disarmed.
func referenceResult(t *testing.T, faults []fault.Fault, vecs fault.Vectors) *fault.Result {
	t.Helper()
	core, _ := testCore(t)
	res, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{
		Faults: faults, Kernel: fault.KernelReference,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShadowCleanRunMatchesReference: with no chaos, a full-sample
// shadow check neither changes the result nor reports divergence.
func TestShadowCleanRunMatchesReference(t *testing.T) {
	core, faults := testCore(t)
	if len(faults) > 800 {
		faults = faults[:800]
	}
	vecs := bist.PseudorandomVectors(300, 1)
	want := referenceResult(t, faults, vecs)

	before := counter("kernel.divergence")
	res, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions:   fault.SimOptions{Faults: faults},
		Workers:      2,
		ShadowSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.DetectedAt, want.DetectedAt) {
		t.Fatal("clean shadow-checked run diverges from reference")
	}
	if got := counter("kernel.divergence") - before; got != 0 {
		t.Fatalf("clean run recorded %d divergences", got)
	}
}

// TestShadowCatchesCorruptedKernel is the core cross-checking
// guarantee: with chaos corrupting compiled-kernel batch words, the
// full-sample shadow check must detect the divergence, report it with
// its disagreeing lanes to the Sink, quarantine the compiled kernel for
// the call, and fall back to the reference kernel so the result is still
// bit-identical to the oracle.
func TestShadowCatchesCorruptedKernel(t *testing.T) {
	core, faults := testCore(t)
	if len(faults) > 800 {
		faults = faults[:800]
	}
	vecs := bist.PseudorandomVectors(300, 1)
	want := referenceResult(t, faults, vecs)

	armChaos(t, "logic.eventsim.diff=corrupt:times=100", 42)
	divBefore := counter("kernel.divergence")
	injBefore := counter("chaos.injected")
	sink := &captureSink{}
	res, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions:   fault.SimOptions{Faults: faults, Sink: sink},
		Workers:      2,
		ShadowSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := counter("chaos.injected") - injBefore; got != 100 {
		t.Fatalf("chaos.injected advanced by %d, want 100", got)
	}
	if got := counter("kernel.divergence") - divBefore; got < 1 {
		t.Fatal("corrupted kernel batches produced no recorded divergence")
	}
	divEvents := 0
	for _, ev := range sink.events {
		if ev.Fields["event"] != "kernel.divergence" {
			continue
		}
		divEvents++
		if lanes, _ := ev.Fields["lanes"].([]string); len(lanes) == 0 {
			t.Fatalf("kernel.divergence event carries no lanes: %v", ev.Fields)
		}
	}
	if divEvents == 0 {
		t.Fatal("the Sink saw no kernel.divergence event")
	}
	if !reflect.DeepEqual(res.DetectedAt, want.DetectedAt) {
		t.Fatal("result after quarantine fallback diverges from reference oracle")
	}
	if res.Coverage() != want.Coverage() {
		t.Fatalf("coverage %v after fallback, want %v", res.Coverage(), want.Coverage())
	}
}

// TestSerialCallIsGuarded: a one-worker call, the configuration every
// gated benchmark and the fastest default run, is guarded like any
// other. With chaos corrupting compiled-kernel batch words, the guard
// must record the divergence and the call must still return the
// reference oracle's detection cycles.
func TestSerialCallIsGuarded(t *testing.T) {
	core, faults := testCore(t)
	if len(faults) > 800 {
		faults = faults[:800]
	}
	vecs := bist.PseudorandomVectors(300, 1)
	want := referenceResult(t, faults, vecs)

	armChaos(t, "logic.eventsim.diff=corrupt:times=100", 42)
	divBefore := counter("kernel.divergence")
	res, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions:   fault.SimOptions{Faults: faults},
		Workers:      1,
		ShadowSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := counter("kernel.divergence") - divBefore; got < 1 {
		t.Fatal("corrupted kernel batches on a one-worker call produced no recorded divergence")
	}
	if !reflect.DeepEqual(res.DetectedAt, want.DetectedAt) {
		t.Fatal("one-worker result under corruption diverges from the reference oracle")
	}
}

// TestShardPanicRecoveredAndRetried: an injected shard panic must not
// crash the process or fail the campaign — the shard supervisor
// retries it and the merged result stays bit-identical.
func TestShardPanicRecoveredAndRetried(t *testing.T) {
	core, faults := testCore(t)
	if len(faults) > 600 {
		faults = faults[:600]
	}
	vecs := bist.PseudorandomVectors(200, 1)
	want := referenceResult(t, faults, vecs)

	armChaos(t, "engine.shard=panic:times=1", 7)
	retriesBefore := counter("engine.shard_retries")
	res, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{Faults: faults},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := counter("engine.shard_retries") - retriesBefore; got != 1 {
		t.Fatalf("engine.shard_retries advanced by %d, want 1", got)
	}
	if !reflect.DeepEqual(res.DetectedAt, want.DetectedAt) {
		t.Fatal("post-retry result diverges from reference")
	}
}

// TestShardPanicBudgetExhausted: a shard that panics on every attempt
// surfaces as an error (with the panic message), never as a process
// crash.
func TestShardPanicBudgetExhausted(t *testing.T) {
	core, faults := testCore(t)
	if len(faults) > 200 {
		faults = faults[:200]
	}
	vecs := bist.PseudorandomVectors(100, 1)
	armChaos(t, "fault.segment=panic:times=0", 7)
	_, err := Simulate(core.Netlist, vecs, SimOptions{
		SimOptions: fault.SimOptions{Faults: faults},
		Workers:    2,
	})
	if err == nil || !strings.Contains(err.Error(), "chaos: injected panic") {
		t.Fatalf("err = %v, want shard panic error", err)
	}
}
