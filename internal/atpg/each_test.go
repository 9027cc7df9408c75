package atpg

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/logic"
)

// stopFixture returns the dsp core under the full-scan bound and a
// target list for stopping Each early: a quick fault first, then faults
// that abort at 200 backtracks, under a limit that keeps each of them
// searching for tens to hundreds of milliseconds.
func stopFixture(t *testing.T) (*logic.Netlist, Options, Target, []Target) {
	t.Helper()
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	n := core.Netlist
	faults, _ := fault.Collapse(n, fault.AllFaults(n))
	opts := FullScan(n)
	opts.MaxBacktracks = 200
	s := NewSolver(n, opts)
	var quick Target
	var slow []Target
	for k, stride := 0, len(faults)/200; k < 200 && (quick.Fault == fault.Fault{} || len(slow) < 8); k++ {
		f := faults[k*stride]
		switch s.Generate(f).Status {
		case Detected:
			if (quick.Fault == fault.Fault{}) {
				quick = Target{Fault: f}
			}
		case Aborted:
			slow = append(slow, Target{Fault: f})
		}
	}
	if (quick.Fault == fault.Fault{}) || len(slow) < 8 {
		t.Fatalf("sample has no detected fault or fewer than 8 aborted ones (%d)", len(slow))
	}
	opts.MaxBacktracks = 100000
	return n, opts, quick, slow
}

// searching reports whether any goroutine is inside a PODEM run.
func searching() bool {
	buf := make([]byte, 1<<20)
	for {
		k := runtime.Stack(buf, true)
		if k < len(buf) {
			return bytes.Contains(buf[:k], []byte("atpg.(*Solver).Generate"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestEachStopsItsWorkers stops Each right after its quick first
// target, while the other workers are deep in slow searches: a yield
// that returns false, a yield that panics, and a search that panics.
// Each must return (or re-panic on the caller's goroutine) only once no
// search is running, and must not yield past the stop.
func TestEachStopsItsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n, opts, quick, slow := stopFixture(t)
	targets := append([]Target{quick}, slow...)
	// A site past the last net makes Generate index out of range.
	bad := append([]Target{quick, {Fault: fault.Fault{Site: logic.NetID(n.NumNets())}}}, slow...)

	type sentinel struct{}
	for _, tc := range []struct {
		name    string
		targets []Target
		yield   func(i int, r Result) bool
		// panicOK reports whether Each's panic value, nil if it
		// returned, is the one the case expects.
		panicOK func(p any) bool
	}{
		{name: "yield returns false", targets: targets,
			yield:   func(int, Result) bool { return false },
			panicOK: func(p any) bool { return p == nil }},
		{name: "yield panics", targets: targets,
			yield:   func(int, Result) bool { panic(sentinel{}) },
			panicOK: func(p any) bool { return p == sentinel{} }},
		{name: "search panics", targets: bad,
			yield:   func(int, Result) bool { return true },
			panicOK: func(p any) bool { _, ok := p.(runtime.Error); return ok }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			yields := 0
			var got any
			func() {
				defer func() { got = recover() }()
				Each(n, opts, tc.targets, func(i int, r Result) bool {
					yields++
					return tc.yield(i, r)
				})
			}()
			if searching() {
				t.Error("a search is still running after Each returned")
			}
			// Every case stops at (or, for the bad site, just after) the
			// quick first target.
			if yields != 1 {
				t.Errorf("yield saw %d targets, want 1", yields)
			}
			if !tc.panicOK(got) {
				t.Errorf("Each ended with panic value %v", got)
			}
		})
	}
}
