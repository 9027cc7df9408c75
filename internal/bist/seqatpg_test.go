package bist

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
)

// buildPipeline returns a tiny sequential circuit where tests exist but
// need multiple frames: out = DFF(DFF(a XOR b)).
func buildPipeline(t *testing.T) *logic.Netlist {
	t.Helper()
	b := logic.NewBuilder()
	a := b.Input("a")
	x := b.Input("b")
	s1 := b.DFF(b.Xor(a, x), "s1")
	s2 := b.DFF(s1, "s2")
	b.MarkOutput(s2, "out")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSequentialATPGOnShallowPipeline(t *testing.T) {
	n := buildPipeline(t)
	// With 4 frames every fault is within reach; coverage should be
	// high — the contrast with the DSP core's collapse shows the effect
	// is pipeline depth + state justification, not the tool.
	res, err := SequentialATPGOpts(n, SeqATPGOptions{Frames: 4, SampleEvery: 1, MaxBacktracks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.9 {
		t.Fatalf("shallow pipeline coverage %.2f, want ≥0.9 (found %d tests, %d untestable, %d aborted)",
			res.Coverage(), res.TestsFound, res.Untestable, res.Aborted)
	}
	// Every generated test must really detect at least one fault
	// (grading counted them), and tests are Frames cycles long.
	for _, test := range res.Tests {
		if len(test) != 4 {
			t.Fatalf("test length %d != frames", len(test))
		}
	}
}

func TestSequentialATPGOneFrameMissesDeepFaults(t *testing.T) {
	n := buildPipeline(t)
	deep, err := SequentialATPGOpts(n, SeqATPGOptions{Frames: 1, SampleEvery: 1, MaxBacktracks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	full, err := SequentialATPGOpts(n, SeqATPGOptions{Frames: 4, SampleEvery: 1, MaxBacktracks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if deep.Coverage() >= full.Coverage() {
		t.Fatalf("1-frame coverage %.2f should trail 4-frame %.2f",
			deep.Coverage(), full.Coverage())
	}
}

func TestSequentialATPGProgressCallback(t *testing.T) {
	n := buildPipeline(t)
	calls := 0
	_, err := SequentialATPGOpts(n, SeqATPGOptions{Frames: 2, SampleEvery: 1, MaxBacktracks: 500, Progress: func(done, total int) {
		calls++
		if done > total {
			t.Fatalf("done %d > total %d", done, total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
}

type recordSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recordSink) Emit(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// TestSequentialATPGStatsAndTrace also holds the run to fault order,
// although the searches run on every core: per-fault events carry
// strictly increasing indices, and Progress counts up one fault at a
// time.
func TestSequentialATPGStatsAndTrace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := buildPipeline(t)
	rec := &recordSink{}
	var done []int
	res, err := SequentialATPGOpts(n, SeqATPGOptions{
		Frames: 4, SampleEvery: 1, MaxBacktracks: 2000, Sink: rec,
		Progress: func(d, _ int) { done = append(done, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Implications == 0 || res.Stats.Decisions == 0 {
		t.Fatalf("aggregated PODEM stats empty: %+v", res.Stats)
	}
	for k, d := range done {
		if d != k+1 {
			t.Fatalf("Progress calls %v: call %d reports done=%d", done, k+1, d)
		}
	}
	if len(done) != res.FaultsTried {
		t.Fatalf("Progress called %d times, faults tried %d", len(done), res.FaultsTried)
	}
	perFault, summaries, last := 0, 0, -1
	for _, ev := range rec.events {
		switch {
		case ev.Type == obs.EventPhase && ev.Name == "seqatpg/fault":
			perFault++
			for _, key := range []string{"index", "status", "backtracks", "decisions", "seconds"} {
				if _, ok := ev.Fields[key]; !ok {
					t.Fatalf("per-fault event missing %q: %+v", key, ev.Fields)
				}
			}
			if i := ev.Fields["index"].(int); i <= last {
				t.Fatalf("per-fault event index %d after %d", i, last)
			} else {
				last = i
			}
		case ev.Type == obs.EventSummary:
			summaries++
			if ev.Fields["tests_found"] != res.TestsFound {
				t.Fatalf("summary disagrees with result: %+v", ev.Fields)
			}
		}
	}
	// The pipeline fixture unrolls every net, so every targeted fault
	// has sites and emits exactly one per-fault event.
	if perFault != res.FaultsTried {
		t.Fatalf("per-fault events %d, faults tried %d", perFault, res.FaultsTried)
	}
	if summaries != 1 {
		t.Fatalf("summary events %d", summaries)
	}
}

// TestSequentialATPGGOMAXPROCSInvariant runs the baseline on a dsp
// sample at GOMAXPROCS 1 and 4: the searches fan out over the cores, and
// every count, the Stats and the tests in fault order must not move.
func TestSequentialATPGGOMAXPROCSInvariant(t *testing.T) {
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var one *ATPGBaselineResult
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := SequentialATPGOpts(core.Netlist, SeqATPGOptions{Frames: 3, SampleEvery: 10, MaxBacktracks: 200})
		if err != nil {
			t.Fatal(err)
		}
		if one == nil {
			one = res
			continue
		}
		if !reflect.DeepEqual(res, one) {
			t.Fatalf("GOMAXPROCS 4 differs from 1:\n%+v\n%+v", res, one)
		}
	}
	if one.TestsFound == 0 || one.Untestable+one.Aborted == 0 {
		t.Fatalf("sample exercises one outcome only: %+v", one)
	}
}

func TestSequentialATPGGradingConsistent(t *testing.T) {
	// DetectedTotal must equal a direct fault-simulation grade of the
	// test set.
	n := buildPipeline(t)
	res, err := SequentialATPGOpts(n, SeqATPGOptions{Frames: 4, SampleEvery: 1, MaxBacktracks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.Collapse(n, fault.AllFaults(n))
	detected := map[fault.Fault]bool{}
	for _, test := range res.Tests {
		sim, err := fault.Simulate(n, fault.Vectors(test), fault.SimOptions{Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sim.Faults {
			if sim.DetectedAt[i] >= 0 {
				detected[sim.Faults[i]] = true
			}
		}
	}
	if len(detected) != res.DetectedTotal {
		t.Fatalf("grading mismatch: %d vs %d", len(detected), res.DetectedTotal)
	}
}
