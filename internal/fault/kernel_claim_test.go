package fault

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/logic"
)

// These tests drive a segment's batch claims on goroutines of their own
// choosing, so that a batch panic lands on a helper or on the parked
// filler for certain; through Simulate it lands wherever the scheduler
// puts it (TestBatchPanicReachesCaller).

const batchBoom = "chaos: injected panic at fault.batch"

// claimFixture is denseCircuit under 256 vectors, with the first 64
// cycles recorded in trace.
func claimFixture(t *testing.T) (*logic.Compiled, Vectors, *logic.GoodTrace) {
	t.Helper()
	n := denseCircuit(t, true)
	vecs := gatedVectors(256, 100)
	tr := logic.NewGoodTrace(n.NumNets(), vecs.Len())
	FillGoodTrace(n, nil, vecs, tr, 64)
	return logic.CompiledFor(n), vecs, tr
}

// openSegment starts a run of every fault of prog's netlist and cuts it
// into one-word batches over [0, 64) of trace.
func openSegment(t *testing.T, prog *logic.Compiled, vecs Vectors, trace *logic.GoodTrace) *segment {
	t.Helper()
	n := prog.Netlist()
	stateWords := (len(n.DFFs()) + 63) / 64
	r := newSimRun(n, vecs, SimOptions{Faults: AllFaults(n)}, stateWords)
	nextGood := make([]uint64, stateWords)
	trace.StateInto(64, n.DFFs(), nextGood)
	s := &segment{r: r, prog: prog, lw: 1, trace: trace, start: 0, end: 64, nextGood: nextGood}
	s.cut()
	if s.batches < 3 {
		t.Fatalf("fixture: %d batches, want three or more", s.batches)
	}
	return s
}

// armBatchPanic makes the next batch replay panic.
func armBatchPanic(t *testing.T) {
	t.Helper()
	cfg, err := chaos.Parse("fault.batch=panic", 1)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(cfg)
	t.Cleanup(chaos.Disarm)
}

// waitPanic runs s.wait, once every batch has finished, and returns
// what it panicked with.
func waitPanic(t *testing.T, s *segment) (p any) {
	t.Helper()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the segment's batches never finished")
	}
	defer func() { p = recover() }()
	s.wait()
	return nil
}

// TestBatchPanicOnHelper: a helper's batch panics; the helper goes on
// claiming (the rest finish without a replay), and the barrier re-raises
// the panic on the goroutine that waits at it.
func TestBatchPanicOnHelper(t *testing.T) {
	prog, vecs, trace := claimFixture(t)
	s := openSegment(t, prog, vecs, trace)
	armBatchPanic(t)
	helped := make(chan struct{})
	go func() {
		s.claimAll(&claimer{})
		close(helped)
	}()
	<-helped
	if s.claim(&claimer{}) {
		t.Fatal("a batch was left unclaimed after the helper's claimAll")
	}
	if got := waitPanic(t, s); got != batchBoom {
		t.Fatalf("wait panicked with %v, want %q", got, batchBoom)
	}
}

// TestBatchPanicOnParkedFiller: with both trace windows out, the filler
// replays the offered segment's batches. It replays them exactly as the
// caller would; a batch that panics on it is re-raised at the barrier;
// and the filler survives, filling the next segment into the window
// handed back and exiting when the run closes it.
func TestBatchPanicOnParkedFiller(t *testing.T) {
	prog, vecs, trace := claimFixture(t)
	baseline := runtime.NumGoroutine()
	f := startGoodFiller(prog, prog.NumNets(), vecs, newSegSchedule(64, false, vecs.Len()), 64, &claimer{})
	var once sync.Once
	closeFiller := func() { once.Do(f.close) }
	defer closeFiller()
	g0, g1 := f.receive(), f.receive()
	if g0.start != 0 || g1.start != 64 {
		t.Fatalf("filler sent [%d, %d) and [%d, %d)", g0.start, g0.end, g1.start, g1.end)
	}

	// A clean segment: the filler replays every batch, detecting what the
	// caller's replay of the same segment detects.
	serial := openSegment(t, prog, vecs, trace)
	serial.claimAll(&claimer{})
	serial.wait()
	s := openSegment(t, prog, vecs, g0.trace)
	f.offer(s)
	if got := waitPanic(t, s); got != nil {
		t.Fatalf("wait panicked with %v", got)
	}
	if f.claimer.batches != int64(s.batches) {
		t.Fatalf("filler replayed %d of %d batches", f.claimer.batches, s.batches)
	}
	for i, at := range serial.r.res.DetectedAt {
		if s.r.res.DetectedAt[i] != at {
			t.Fatalf("fault %d: filler's replay detected at %d, caller's at %d", i, s.r.res.DetectedAt[i], at)
		}
	}

	armBatchPanic(t)
	s = openSegment(t, prog, vecs, g0.trace)
	f.offer(s)
	if got := waitPanic(t, s); got != batchBoom {
		t.Fatalf("wait panicked with %v, want %q", got, batchBoom)
	}
	f.free <- g0.trace
	select {
	case g2 := <-f.segs:
		if g2.start != 128 || g2.end != 192 || g2.evals == 0 {
			t.Fatalf("filler sent [%d, %d) with %d evals after the panic, want [128, 192)", g2.start, g2.end, g2.evals)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the filler filled nothing after its batch panicked")
	}
	closeFiller()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the filler closed, %d before", runtime.NumGoroutine(), baseline)
		}
	}
}
