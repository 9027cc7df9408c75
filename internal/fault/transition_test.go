package fault

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/obs"
)

// serialTransitionDetect is the scalar reference for the
// one-cycle-late-edge model: the faulty machine runs with its own state;
// each cycle it first settles freely to see whether its driver launches
// a slow-direction edge at the site, then re-settles with the site held
// at the previous driven value when it does, and clocks with the hold
// removed.
func serialTransitionDetect(n *logic.Netlist, f TransitionFault, vecs VectorSeq) int {
	good := logictest.NewSimulator(n)
	bad := logictest.NewSimulator(n)
	inputs := n.Inputs()
	prev := false
	havePrev := false
	detected := -1
	for cyc := 0; cyc < vecs.Len(); cyc++ {
		v := vecs.At(cyc)
		for b, in := range inputs {
			good.SetInput(in, v>>uint(b)&1 == 1)
			bad.SetInput(in, v>>uint(b)&1 == 1)
		}
		good.Settle()
		bad.Settle()
		driven := bad.Value(f.Site)
		if havePrev && driven != prev && driven == f.SlowToRise {
			bad.InjectFault(f.Site, prev)
			bad.Settle()
			bad.ClearFault()
		}
		for _, o := range n.Outputs() {
			if good.Value(o) != bad.Value(o) {
				if detected < 0 {
					detected = cyc
				}
			}
		}
		if detected >= 0 {
			return detected
		}
		prev = driven
		havePrev = true
		good.ClockAfterSettle()
		bad.ClockAfterSettle()
	}
	return -1
}

// TestTransitionSimMatchesSerial holds the batched simulator to the
// scalar one on two hand-built circuits and on the random netlists
// TestSimulateBridgesMatchesSerial uses, whose flip-flops put Q sites in
// the fault list.
func TestTransitionSimMatchesSerial(t *testing.T) {
	type tcase struct {
		name string
		n    *logic.Netlist
		vecs Vectors
	}
	var cases []tcase
	for _, c := range []struct {
		name  string
		build func(*testing.T) *logic.Netlist
	}{{"adder", buildAdder}, {"seq", buildSeq}} {
		n := c.build(t)
		cases = append(cases, tcase{c.name, n, randomVectors(90, len(n.Inputs()), 101)})
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed*104729 + 17))
		n := randCircuit(t, rng, seed%2 == 1)
		vecs := make(Vectors, 40+rng.Intn(120))
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		cases = append(cases, tcase{fmt.Sprintf("random/%d", seed), n, vecs})
	}
	for _, c := range cases {
		faults := AllTransitionFaults(c.n)
		res, err := SimulateTransitions(c.n, c.vecs, faults)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range faults {
			want := serialTransitionDetect(c.n, f, c.vecs)
			if got := int(res.DetectedAt[i]); got != want {
				t.Errorf("%s fault %v: parallel=%d serial=%d", c.name, f, got, want)
			}
		}
	}
}

// TestLaneModelsSegmentInvariant: a transition or bridge fault's first
// detection does not depend on where the segment driver drops and
// repacks, nor on the fault's place in the list, at GOMAXPROCS 1, 2 and
// 4. Each transition fault is listed twice, so the list spans several
// batches.
func TestLaneModelsSegmentInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*104729 + 17))
			n := randCircuit(t, rng, seed%2 == 1)
			vecs := make(Vectors, 40+rng.Intn(120))
			for i := range vecs {
				vecs[i] = rng.Uint64()
			}
			check := func(name string, nf int, model func(order []int) laneModel) {
				t.Helper()
				order := make([]int, nf)
				for i := range order {
					order[i] = i
				}
				want, err := simulateModel(n, vecs, model(order), nf, 1024)
				if err != nil {
					t.Fatal(err)
				}
				for _, segLen := range []int{1, 7} {
					got, err := simulateModel(n, vecs, model(order), nf, segLen)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("seed %d %s: segment length %d moves DetectedAt\n got %v\nwant %v", seed, name, segLen, got, want)
					}
				}
				perm := rng.Perm(nf)
				for _, segLen := range []int{1, 7, 1024} {
					got, err := simulateModel(n, vecs, model(perm), nf, segLen)
					if err != nil {
						t.Fatal(err)
					}
					for i, p := range perm {
						if got[i] != want[p] {
							t.Errorf("seed %d %s, permuted, segment length %d: fault %d detected at %d, unpermuted %d", seed, name, segLen, p, got[i], want[p])
						}
					}
				}
			}
			tf := AllTransitionFaults(n)
			tf = append(tf, tf...)
			check("transition", len(tf), func(order []int) laneModel {
				m := transitionModel{make([]TransitionFault, len(order)), make([]bool, len(order))}
				for i, p := range order {
					m.faults[i] = tf[p]
				}
				return m
			})
			bridges := RandomBridges(n, 80, seed)
			check("bridge", len(bridges), func(order []int) laneModel {
				m := make(bridgeModel, len(order))
				for i, p := range order {
					m[i] = bridges[p]
				}
				return m
			})
		}
	}
}

// TestLaneModelsQuiet: transition and bridge runs move no faultsim.*
// counter and fire no fault.segment chaos point, though they share the
// reference kernel's segment loop, which does both.
func TestLaneModelsQuiet(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(2100, len(n.Inputs()), 9) // three segments
	cfg, err := chaos.Parse("fault.segment=panic", 1)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(cfg)
	defer chaos.Disarm()
	before, refBefore := obs.Default().Snapshot(), ctrGateEvalsRef.Load()
	if _, err := SimulateTransitions(n, vecs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateBridges(n, vecs, RandomBridges(n, 20, 1)); err != nil {
		t.Fatal(err)
	}
	for name, v := range obs.Default().Snapshot() {
		if strings.HasPrefix(name, "faultsim.") && v != before[name] {
			t.Errorf("%s moved by %d", name, v-before[name])
		}
	}
	if d := ctrGateEvalsRef.Load() - refBefore; d != 0 {
		t.Errorf("reference gate evaluations moved by %d", d)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the reference kernel did not reach the armed fault.segment point")
			}
		}()
		Simulate(n, vecs, SimOptions{Kernel: KernelReference})
	}()
}

// rendezvousPanic is a lane model whose batches panic in pairs: the
// first batch to act waits there until a second batch acts, and then
// both panic. The caller's goroutine is blocked in at most one of the
// two, so a batch claimed by a helper or the parked filler panics on
// every run.
type rendezvousPanic struct {
	first  atomic.Int64 // 1 + the first fault of the first batch to act
	second chan struct{}
	once   sync.Once
}

const lanePanic = "lane model failed"

func (*rendezvousPanic) load(*logic.CompiledSim, []int) {}

func (m *rendezvousPanic) act(_ *logic.CompiledSim, batch []int, _ int) bool {
	id := int64(batch[0]) + 1
	if m.first.CompareAndSwap(0, id) || m.first.Load() == id {
		select {
		case <-m.second:
		case <-time.After(10 * time.Second):
		}
	} else {
		m.once.Do(func() { close(m.second) })
	}
	panic(lanePanic)
}

// TestLaneModelsPanicReachesCaller: a lane model that panics on a batch
// a helper or the parked filler claimed panics the run on the caller's
// goroutine, at GOMAXPROCS 1, 2 and 4, and leaves no goroutine behind.
func TestLaneModelsPanicReachesCaller(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(300, len(n.Inputs()), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	baseline := runtime.NumGoroutine()
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		m := &rendezvousPanic{second: make(chan struct{})}
		got := func() (p any) {
			defer func() { p = recover() }()
			simulateModel(n, vecs, m, 200, 0) // four batches in the first segment
			return nil
		}()
		if got != lanePanic {
			t.Fatalf("GOMAXPROCS %d: the run panicked with %v, want %q", procs, got, lanePanic)
		}
		select {
		case <-m.second:
		default:
			t.Fatalf("GOMAXPROCS %d: no second batch acted while the first waited", procs)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestReferenceKernelCounters pins what one reference-kernel run adds to
// the counters, at the default SegmentLen. It fills the good machine
// once, as the compiled kernel does, and counts the fill's instructions
// as gate evaluations. It replays its batches on the adaptive segment
// schedule, and a batch stops at the cycle its last lane is detected,
// so its full sweeps settle only the cycles the serial bookkeeping below
// says they need.
func TestReferenceKernelCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := randCircuit(t, rng, true)
	vecs := randomVectors(2100, len(n.Inputs()), 8)
	// The faults the vectors detect come first, so the early batches can
	// finish before their segment ends, and the rest last, so the run
	// lasts all 2 100 cycles.
	first, err := Simulate(n, vecs, SimOptions{Faults: AllFaults(n)})
	if err != nil {
		t.Fatal(err)
	}
	var faults, undetected []Fault
	for i, f := range first.Faults {
		if first.DetectedAt[i] >= 0 {
			faults = append(faults, f)
		} else {
			undetected = append(undetected, f)
		}
	}
	faults = append(faults, undetected...)
	fill := ctrGateEvals.Load()
	FillGoodTrace(n, nil, vecs, logic.NewGoodTrace(n.NumNets(), vecs.Len()), vecs.Len())
	fill = ctrGateEvals.Load() - fill

	names := []string{"faultsim.good_cycles", "faultsim.gate_evals", "faultsim.gate_evals_saved", "faultsim.sweep_blocks"}
	before, refBefore := obs.Default().Snapshot(), ctrGateEvalsRef.Load()
	rec := &recordSink{}
	res, err := Simulate(n, vecs, SimOptions{Faults: faults, Kernel: KernelReference, Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()
	var done []int
	for _, ev := range rec.events {
		if ev.Type == obs.EventSegment {
			done = append(done, ev.Fields["done"].(int))
		}
	}
	delta := map[string]int64{"reference": ctrGateEvalsRef.Load() - refBefore}
	for _, name := range names {
		delta[name] = after[name] - before[name]
	}
	if res.Detected() == len(faults) || res.Detected() == 0 {
		t.Fatalf("fixture: %d of %d faults detected, want some of them", res.Detected(), len(faults))
	}

	// The serial bookkeeping: batches of 63 remaining faults in list
	// order; a batch whose every fault is detected inside the segment
	// settles through the last detection, any other the whole segment.
	wantDone := []int{64, 192, 448, 960, 1984, 2100}
	var settles, full int64
	remaining := make([]int, len(faults))
	for i := range remaining {
		remaining[i] = i
	}
	start := 0
	for _, end := range wantDone {
		var survivors []int
		for b := 0; b < len(remaining); b += 63 {
			last := start - 1
			for _, fi := range remaining[b:min(b+63, len(remaining))] {
				at := int(res.DetectedAt[fi])
				if at < 0 || at >= end {
					survivors = append(survivors, fi)
					last = end - 1
				} else {
					last = max(last, at)
				}
			}
			settles += int64(last - start + 1)
			full += int64(end - start)
		}
		remaining, start = survivors, end
	}
	evals := fill + settles*int64(len(n.CombOrder()))

	if settles == full {
		t.Fatal("fixture: no batch is done before its segment ends")
	}
	if !slices.Equal(done, wantDone) {
		t.Errorf("segment events end at %v, want %v", done, wantDone)
	}
	for name, want := range map[string]int64{
		"faultsim.good_cycles":      int64(vecs.Len()),
		"faultsim.gate_evals":       evals,
		"reference":                 evals,
		"faultsim.gate_evals_saved": 0,
		"faultsim.sweep_blocks":     0,
	} {
		if delta[name] != want {
			t.Errorf("%s moved by %d, want %d (fill %d, %d settles of %d gates)", name, delta[name], want, fill, settles, len(n.CombOrder()))
		}
	}
}

func TestTransitionNeedsTransition(t *testing.T) {
	// A constant-input stream never launches: zero coverage.
	n := buildAdder(t)
	vecs := make(Vectors, 50) // all-zero inputs
	res, err := SimulateTransitions(n, vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected() != 0 {
		t.Fatalf("constant stream detected %d transition faults", res.Detected())
	}
}

func TestTransitionCoverageBelowStuckAt(t *testing.T) {
	// TDF detection requires launch + capture, so coverage at equal
	// vectors is at most the stuck-at coverage (each TDF detection
	// implies the corresponding stuck-at detection at that cycle).
	n := buildSeq(t)
	vecs := randomVectors(200, 4, 55)
	tdf, err := SimulateTransitions(n, vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Simulate(n, vecs, SimOptions{Faults: AllFaults(n)})
	if err != nil {
		t.Fatal(err)
	}
	if tdf.Coverage() > sa.Coverage()+1e-9 {
		t.Fatalf("TDF coverage %.3f exceeds stuck-at %.3f", tdf.Coverage(), sa.Coverage())
	}
	if tdf.Detected() == 0 {
		t.Fatal("no transition faults detected by 200 random vectors")
	}
}

// TestTransitionQSiteArrivesLate: a slow edge at a flip-flop's Q is one
// cycle late, as at any other net. The flip-flop latches its D input
// unforced, so the edge arrives on the next cycle and does not launch
// again; a Q site is no stuck-at fault.
func TestTransitionQSiteArrivesLate(t *testing.T) {
	b := logic.NewBuilder()
	a, en := b.Input("a"), b.Input("b")
	q := b.DFF(a, "q")
	b.MarkOutput(b.And(q, en), "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := TransitionFault{Site: q, SlowToRise: true}
	for _, c := range []struct {
		vecs Vectors
		want int
	}{
		// q rises at cycle 1 while b masks it, and is 1 from cycle 2 on.
		{Vectors{1, 1, 1, 3, 3, 3}, -1},
		// q rises at cycle 1 with b set: the late edge shows.
		{Vectors{1, 3, 3, 3}, 1},
	} {
		res, err := SimulateTransitions(n, c.vecs, []TransitionFault{f})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(res.DetectedAt[0]); got != c.want {
			t.Errorf("vectors %v: SimulateTransitions detects at %d, want %d", c.vecs, got, c.want)
		}
		if got := serialTransitionDetect(n, f, c.vecs); got != c.want {
			t.Errorf("vectors %v: serialTransitionDetect detects at %d, want %d", c.vecs, got, c.want)
		}
	}
}
