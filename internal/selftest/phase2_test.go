package selftest

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// captureSink keeps every event it is sent, in order.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *captureSink) Emit(ev obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// phase2Config is an engine small enough to run the Phase-2 tests many
// times under the race detector that still leaves Phase 1 several
// columns to hand on.
var phase2Config = metrics.Config{CTrials: 500, OGoodRuns: 2, Seed: 77}

// TestGenerateGOMAXPROCSInvariant generates the same program at
// GOMAXPROCS 1, 2 and 4, where Phase 2 measures its columns on that
// many goroutines, and requires the same program source, the same
// Report field for field (the table, the Phase-1 cover, and Phase 2's
// sequences, discarded and unresolved columns in order, trial and
// injection counts) and the same phase events in the same order.
func TestGenerateGOMAXPROCSInvariant(t *testing.T) {
	type run struct {
		source string
		rep    *Report
		phases []obs.Event
	}
	generate := func(procs int) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sink := &captureSink{}
		eng := metrics.NewEngine(phase2Config)
		prog, rep := NewGenerator(eng).WithObs(obs.NewSpan(sink, "generate")).Generate()
		var phases []obs.Event
		for _, ev := range sink.events {
			if ev.Type == obs.EventPhase {
				phases = append(phases, ev)
			}
		}
		return run{prog.Source(), rep, phases}
	}
	one := generate(1)
	if n := len(one.rep.Phase1.Uncovered); n < 2 {
		t.Fatalf("Phase 1 left %d columns uncovered; the test needs several to run in parallel", n)
	}
	for _, procs := range []int{2, 4} {
		got := generate(procs)
		if got.source != one.source {
			t.Errorf("GOMAXPROCS=%d: program differs\n--- 1 ---\n%s\n--- %d ---\n%s", procs, one.source, procs, got.source)
		}
		if !reflect.DeepEqual(got.rep, one.rep) {
			t.Errorf("GOMAXPROCS=%d: report differs\n--- 1 ---\n%+v\n--- %d ---\n%+v", procs, *one.rep.Phase2, procs, *got.rep.Phase2)
		}
		if !reflect.DeepEqual(got.phases, one.phases) {
			t.Errorf("GOMAXPROCS=%d: phase events differ\n--- 1 ---\n%v\n--- %d ---\n%v", procs, one.phases, procs, got.phases)
		}
	}
}

// TestPhase2PanicReachesCaller breaks the table so that resolving one
// uncovered column panics on a worker goroutine, and requires the panic
// on Phase2Traced's caller.
func TestPhase2PanicReachesCaller(t *testing.T) {
	eng := metrics.NewEngine(phase2Config)
	tab := *eng.BuildTable()
	p1 := Phase1Traced(&tab, nil)
	// The best row of the first uncovered column that has one gets an
	// operation the ISA does not have: building its candidates panics.
	broken := -1
	for _, col := range p1.Uncovered {
		if broken = bestRowFor(&tab, col); broken >= 0 {
			break
		}
	}
	if broken < 0 {
		t.Fatal("no uncovered column has a candidate row")
	}
	tab.Rows = append([]metrics.Row(nil), tab.Rows...)
	tab.Rows[broken].Op = isa.Op(99)
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			defer func() {
				if recover() == nil {
					t.Errorf("GOMAXPROCS=%d: Phase2Traced returned without the column's panic", procs)
				}
			}()
			Phase2Traced(eng, &tab, p1, nil)
		}()
	}
}

// TestParallelEachRaisesLowestPanic: when several calls panic, the
// caller sees the one with the lowest index, with the stack of the call
// that raised it. Calls are claimed in index order, so a lower-indexed
// call always runs.
func TestParallelEachRaisesLowestPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got := func() (p any) {
		defer func() { p = recover() }()
		parallelEach(64, func(i int) {
			if i == 3 || i == 5 {
				panicInColumn(i)
			}
		})
		return nil
	}()
	msg, _ := got.(string)
	if !strings.HasPrefix(msg, "column 3\n") {
		t.Fatalf("recovered %v, want the panic of column 3", got)
	}
	if !strings.Contains(msg, "panicInColumn") {
		t.Fatalf("the re-raised panic does not name the frame that failed:\n%s", msg)
	}
}

func panicInColumn(i int) { panic(fmt.Sprintf("column %d", i)) }
