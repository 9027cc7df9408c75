package fault_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bist"
	"repro/internal/chaos"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/obs"
)

// The compiled kernel fills the fault-free machine one segment ahead of
// the fault batches, on a goroutine of its own, and replays a segment's
// batches on every core. These tests pin that machinery on the dsp core:
// a panic in the vector source or in a batch reaches the caller, a run
// that ends early counts only the segments it replayed and leaves no
// goroutine behind, a cancelled run stops at the boundary it was
// cancelled at, and no result or counter depends on GOMAXPROCS.

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
// recovered; the engine's call supervisor turns it into an error after
// its one retry, and the process survives both.
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
	})
	if err == nil || !strings.Contains(err.Error(), boom) {
		t.Fatalf("engine.Simulate error = %v, want one carrying %q", err, boom)
	}
	if n := retries.Load() - before; n != 1 {
		t.Fatalf("engine.shard_retries moved by %d, want 1 (the call's one retry)", n)
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

// waitGoroutines waits for the goroutine count to fall back to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// completeTrace records the fault-free machine over every cycle of vecs,
// for runs that pin it.
func completeTrace(n *logic.Netlist, vecs fault.Vectors) *logic.GoodTrace {
	tr := logic.NewGoodTrace(n.NumNets(), vecs.Len())
	fault.FillGoodTrace(n, nil, vecs, tr, vecs.Len())
	return tr
}

// TestBatchPanicReachesCaller: a batch that panics on whichever
// goroutine claimed it — the caller, a helper or the parked filler —
// panics Simulate on the caller's goroutine once the segment's other
// batches are done, and leaves no goroutine behind. At GOMAXPROCS 4 a
// pinned-trace run has three helpers and a run-local fill two helpers
// and the filler, so over the panicking batches below most land off the
// caller's goroutine (kernel_claim_test.go pins the helper and the filler
// cases one at a time). Through engine.Simulate the call supervisor's
// retry recovers the run.
func TestBatchPanicReachesCaller(t *testing.T) {
	d := dspDesign(t)
	vecs := bist.PseudorandomVectors(1024, 7)
	faults := everyNth(d.Faults, 2)
	want, err := fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	pinned := completeTrace(d.Netlist, vecs)
	defer chaos.Disarm()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const boom = "chaos: injected panic at fault.batch"
	baseline := runtime.NumGoroutine()
	for _, trace := range []*logic.GoodTrace{pinned, nil} {
		for _, after := range []int{0, 3, 7, 11, 16, 23} {
			cfg, err := chaos.Parse(fmt.Sprintf("fault.batch=panic:after=%d", after), 1)
			if err != nil {
				t.Fatal(err)
			}
			chaos.Arm(cfg)
			got := func() (p any) {
				defer func() { p = recover() }()
				fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: faults, LaneWords: 1, Trace: trace})
				return nil
			}()
			if got != boom {
				t.Fatalf("pinned=%v after=%d: fault.Simulate panicked with %v, want %q", trace != nil, after, got, boom)
			}
		}
	}
	chaos.Disarm()
	waitGoroutines(t, baseline)

	cfg, err := chaos.Parse("fault.batch=panic:after=5", 1)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(cfg)
	retries := obs.Default().Counter("engine.shard_retries")
	before := retries.Load()
	got, err := engine.Simulate(d.Netlist, vecs, engine.SimOptions{
		SimOptions: fault.SimOptions{Faults: faults},
	})
	if err != nil {
		t.Fatalf("engine.Simulate: %v", err)
	}
	if n := retries.Load() - before; n != 1 {
		t.Fatalf("engine.shard_retries moved by %d, want 1", n)
	}
	for i := range want.DetectedAt {
		if got.DetectedAt[i] != want.DetectedAt[i] {
			t.Fatalf("fault %d: detected at %d after the retry, %d serially", i, got.DetectedAt[i], want.DetectedAt[i])
		}
	}
}

// kernelCounters are the counters a compiled-kernel run moves.
var kernelCounters = []*obs.Counter{
	obs.Default().Counter("faultsim.good_cycles"),
	obs.Default().Counter("faultsim.gate_evals"),
	obs.Default().Counter("faultsim.gate_evals_saved"),
	obs.Default().CounterFamily("sbst_kernel_cycles_total", "", "mode").Counter("sweep"),
	obs.Default().Counter("faultsim.sweep_blocks"),
}

// observed is what a run shows from outside: its result, its Progress
// sequence, what it added to kernelCounters and how many windows it
// audited (the faultsim span's audit_windows).
type observed struct {
	res      *fault.Result
	progress [][3]int
	counters []int64
	audited  any
}

// spanEnd keeps the faultsim span's closing fields.
type spanEnd struct {
	mu     sync.Mutex
	fields map[string]any
}

func (s *spanEnd) Emit(ev obs.Event) {
	if ev.Type == obs.EventSpanEnd && ev.Name == "faultsim" {
		s.mu.Lock()
		s.fields = ev.Fields
		s.mu.Unlock()
	}
}

func observe(t *testing.T, procs int, n *logic.Netlist, vecs fault.Vectors, opts fault.SimOptions) observed {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var o observed
	opts.Progress = func(cycles, detected, remaining int) {
		o.progress = append(o.progress, [3]int{cycles, detected, remaining})
	}
	before := make([]int64, len(kernelCounters))
	for i, c := range kernelCounters {
		before[i] = c.Load()
	}
	end := &spanEnd{}
	opts.Sink = end
	res, err := fault.Simulate(n, vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	o.res = res
	for i, c := range kernelCounters {
		o.counters = append(o.counters, c.Load()-before[i])
	}
	o.audited = end.fields["audit_windows"]
	return o
}

// sameRun reports how two observations differ, or "" when they do not.
func sameRun(a, b observed) string {
	if a.res.Cycles != b.res.Cycles {
		return fmt.Sprintf("Cycles %d vs %d", a.res.Cycles, b.res.Cycles)
	}
	for i := range a.res.DetectedAt {
		if a.res.DetectedAt[i] != b.res.DetectedAt[i] {
			return fmt.Sprintf("fault %d DetectedAt %d vs %d", i, a.res.DetectedAt[i], b.res.DetectedAt[i])
		}
		if a.res.Detections != nil && a.res.Detections[i] != b.res.Detections[i] {
			return fmt.Sprintf("fault %d Detections %d vs %d", i, a.res.Detections[i], b.res.Detections[i])
		}
	}
	if fmt.Sprint(a.progress) != fmt.Sprint(b.progress) {
		return fmt.Sprintf("Progress %v vs %v", a.progress, b.progress)
	}
	if fmt.Sprint(a.counters) != fmt.Sprint(b.counters) {
		return fmt.Sprintf("counter deltas (good_cycles, gate_evals, gate_evals_saved, cycles_sweep, sweep_blocks) %v vs %v", a.counters, b.counters)
	}
	if a.audited != b.audited {
		return fmt.Sprintf("audited windows %v vs %v", a.audited, b.audited)
	}
	return ""
}

// TestDefaultAuditCoversEveryCall: at the default ShadowSample a call
// audits at least one window whatever its seed draws — here the Table-1
// op, dsp's full fault list over 8 192 LFSR vectors, on which the sampled
// fraction alone audits nothing at seed 1.
func TestDefaultAuditCoversEveryCall(t *testing.T) {
	d := dspDesign(t)
	vecs := bist.PseudorandomVectors(8192, 1)
	for seed := int64(0); seed <= 3; seed++ {
		o := observe(t, runtime.GOMAXPROCS(0), d.Netlist, vecs, fault.SimOptions{Faults: d.Faults, ShadowSeed: seed})
		if n, _ := o.audited.(int64); n < 1 {
			t.Fatalf("ShadowSeed %d: a default call audited %v windows, want at least one", seed, o.audited)
		}
	}
}

// TestSimulateGOMAXPROCSInvariant: which goroutines replay a segment's
// batches depends on GOMAXPROCS; nothing a run reports may. The dsp core
// with its full fault list and 40 random netlists at one-word batches
// (so most have several per segment), each with a run-local fill and
// with a complete pinned trace, read the same results, Progress
// sequence, counter deltas and audited window count at GOMAXPROCS 1, 2
// and 4. The random netlists run once more with every window audited,
// which must change none of it either. The reference kernel, on a dsp
// sample and the random netlists, and transition and bridge runs on the
// random netlists replay on the same work list and must not move either.
func TestSimulateGOMAXPROCSInvariant(t *testing.T) {
	type job struct {
		name string
		n    *logic.Netlist
		vecs fault.Vectors
		opts fault.SimOptions
	}
	// model is a transition or bridge run, which returns DetectedAt.
	type model struct {
		name string
		run  func() ([]int32, error)
	}
	d := dspDesign(t)
	dspVecs := bist.PseudorandomVectors(1024, 1)
	jobs := []job{
		{"dsp", d.Netlist, dspVecs, fault.SimOptions{Faults: d.Faults}},
		{"dsp reference", d.Netlist, dspVecs[:256], fault.SimOptions{Faults: everyNth(d.Faults, 64), Kernel: fault.KernelReference}},
	}
	var models []model
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)*7919 + 3))
		n, err := logictest.RandomNetlist(rng, seed%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		vecs := make(fault.Vectors, 64+rng.Intn(200))
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		for _, ndet := range []int{1, 3} {
			jobs = append(jobs, job{fmt.Sprintf("random %d ndet %d", seed, ndet), n, vecs,
				fault.SimOptions{Faults: fault.AllFaults(n), NDetect: ndet, LaneWords: 1}},
				job{fmt.Sprintf("random %d ndet %d reference", seed, ndet), n, vecs,
					fault.SimOptions{Faults: fault.AllFaults(n), NDetect: ndet, Kernel: fault.KernelReference}})
		}
		jobs = append(jobs, job{fmt.Sprintf("random %d audited", seed), n, vecs,
			fault.SimOptions{Faults: fault.AllFaults(n), LaneWords: 1, ShadowSample: 1}})
		models = append(models,
			model{fmt.Sprintf("random %d transitions", seed), func() ([]int32, error) {
				res, err := fault.SimulateTransitions(n, vecs, nil)
				if err != nil {
					return nil, err
				}
				return res.DetectedAt, nil
			}},
			model{fmt.Sprintf("random %d bridges", seed), func() ([]int32, error) {
				return fault.SimulateBridges(n, vecs, fault.RandomBridges(n, 150, int64(seed)))
			}})
	}
	for _, j := range jobs {
		pinned := j.opts
		pinned.Trace = completeTrace(j.n, j.vecs)
		for _, opts := range []fault.SimOptions{j.opts, pinned} {
			one := observe(t, 1, j.n, j.vecs, opts)
			for _, procs := range []int{2, 4} {
				if diff := sameRun(one, observe(t, procs, j.n, j.vecs, opts)); diff != "" {
					t.Fatalf("%s, pinned=%v: GOMAXPROCS 1 vs %d: %s", j.name, opts.Trace != nil, procs, diff)
				}
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, m := range models {
		var one []int32
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := m.run()
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				one = got
			} else if !slices.Equal(got, one) {
				t.Fatalf("%s: GOMAXPROCS 1 vs %d: DetectedAt\n%v\nvs\n%v", m.name, procs, one, got)
			}
		}
	}
}
