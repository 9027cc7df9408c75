package atpg

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dspgate"
	"repro/internal/fault"
	"repro/internal/logic"
)

// poolFixture returns the dsp core under the full-scan bound at 200
// backtracks with ten of the golden's strided dsp faults, and the
// standalone shifter under mode 00 at 600 backtracks with a strided
// sample of its faults.
func poolFixture(t testing.TB) (dsp *logic.Netlist, dspOpts Options, dspFaults []fault.Fault,
	shifter *logic.Netlist, mode logic.Bus, shOpts Options, shFaults []fault.Fault) {
	t.Helper()
	core, err := dspgate.Build(dspgate.Options{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	dsp = core.Netlist
	all, _ := fault.Collapse(dsp, fault.AllFaults(dsp))
	for k, stride := 0, len(all)/200; k < 200; k += 20 {
		dspFaults = append(dspFaults, all[k*stride])
	}
	dspOpts = FullScan(dsp)
	dspOpts.MaxBacktracks = 200

	shifter, mode, all = buildShifter(t)
	for k := 0; k < len(all); k += len(all) / 16 {
		shFaults = append(shFaults, all[k])
	}
	shOpts = Options{Fixed: map[logic.NetID]bool{mode[0]: false, mode[1]: false}, MaxBacktracks: 600}
	return dsp, dspOpts, dspFaults, shifter, mode, shOpts, shFaults
}

// sameResult reports whether two runs agree on everything but their
// wall time.
func sameResult(a, b Result) bool {
	a.Elapsed, b.Elapsed = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestGenerateMatchesFreshSolver holds the one-shot Generate to a solver
// built for the call, while the calls alternate between two netlists
// and the caller edits its options in place between them: a PIs
// element, a Fixed value under the same keys, an Observe element and
// MaxBacktracks. Each edit is made right after a run on the same
// netlist, so a one-shot form that kept a solver for a later call would
// have to tell the edited options from the ones it was built for. Every
// edit must change some fault's result, or it would test nothing.
func TestGenerateMatchesFreshSolver(t *testing.T) {
	dsp, dspOpts, dspFaults, shifter, mode, shOpts, shFaults := poolFixture(t)
	// run holds Generate to a fresh solver on every fault and returns
	// the results.
	run := func(step string, n *logic.Netlist, opts Options, faults []fault.Fault) []Result {
		t.Helper()
		var out []Result
		for _, f := range faults {
			got := Generate(n, f, opts)
			want := NewSolver(n, opts).Generate(f)
			if !sameResult(got, want) {
				t.Fatalf("%s, fault %v:\n got %+v\nwant %+v", step, f, got, want)
			}
			out = append(out, want)
		}
		return out
	}
	// edited runs a step after an in-place edit and requires the edit to
	// have changed some result since the step before.
	edited := func(step string, n *logic.Netlist, opts Options, faults []fault.Fault, before []Result) []Result {
		t.Helper()
		after := run(step, n, opts, faults)
		for k := range after {
			if !sameResult(after[k], before[k]) {
				return after
			}
		}
		t.Fatalf("%s: the edit changed no result", step)
		return nil
	}

	dspRes := run("dsp", dsp, dspOpts, dspFaults)

	// A PIs element: the first PI a detected fault's test assigns stops
	// being assignable (it becomes a copy of its neighbour).
	k := slices.IndexFunc(dspRes, func(r Result) bool { return r.Status == Detected })
	if k < 0 {
		t.Fatal("no detected dsp fault in the sample")
	}
	pi := slices.IndexFunc(dspOpts.PIs, func(pi logic.NetID) bool { _, ok := dspRes[k].Assignment[pi]; return ok })
	dspOpts.PIs[pi] = dspOpts.PIs[(pi+1)%len(dspOpts.PIs)]
	dspRes = edited("dsp, PIs element edited", dsp, dspOpts, dspFaults, dspRes)

	shRes := run("shifter mode 00", shifter, shOpts, shFaults)
	shOpts.Fixed[mode[0]] = true
	shRes = edited("shifter mode 01, Fixed edited", shifter, shOpts, shFaults, shRes)

	dspRes = run("dsp after the shifter", dsp, dspOpts, dspFaults)
	// An Observe element: the first output stops being observed and the
	// site of the detected fault with the most decisions is observed
	// instead, so that fault is detected on activation.
	k = -1
	for i, r := range dspRes {
		if r.Status == Detected && (k < 0 || r.Stats.Decisions > dspRes[k].Stats.Decisions) {
			k = i
		}
	}
	dspOpts.Observe[0] = dspFaults[k].Site
	dspRes = edited("dsp, Observe element edited", dsp, dspOpts, dspFaults, dspRes)
	dspOpts.MaxBacktracks = 2
	edited("dsp, MaxBacktracks edited", dsp, dspOpts, dspFaults, dspRes)

	run("shifter mode 01 after dsp", shifter, shOpts, shFaults)
	shOpts.Fixed[mode[0]], shOpts.Fixed[mode[1]] = false, true
	edited("shifter mode 10, Fixed edited", shifter, shOpts, shFaults, shRes)
}

// TestPanickedSolverIsDropped makes a one-shot Generate on dsp take an
// idle solver whose search panics at the end of its first implication
// pass, with its fault injected. That solver must not go back to the
// pool, and the next calls on the same netlist and options must answer
// as fresh solvers. Generate passes no extra sites, so only a panic
// inside the search can leave its solver half-injected: a site past the
// last net panics before the solver changes. Each builds its own
// solvers (TestEachStopsItsWorkers covers its panics). One proc keeps a
// solver put back where the next Get looks first; under the race
// detector Put drops some solvers, so the seeding is retried.
func TestPanickedSolverIsDropped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dsp, opts, faults, _, _, _, _ := poolFixture(t)
	drain := func() []*pooled {
		var out []*pooled
		for x := idle.Get(); x != nil; x = idle.Get() {
			out = append(out, x.(*pooled))
		}
		return out
	}
	seed := &pooled{NewSolver(dsp, opts), opts.clone()}
	armed := true
	seed.s.afterPass = func() {
		if armed {
			armed = false
			panic("search interrupted")
		}
	}
	for try := 0; armed; try++ {
		if try == 100 {
			t.Fatal("Generate never took the seeded solver")
		}
		drain()
		idle.Put(seed)
		func() {
			defer func() {
				if r := recover(); r != nil && armed {
					t.Fatalf("Generate panicked before the search: %v", r)
				}
			}()
			Generate(dsp, faults[0], opts)
		}()
	}
	if !seed.s.siteSet[faults[0].Site] {
		t.Fatal("the search panicked before injecting its fault")
	}
	for _, p := range drain() {
		if p == seed {
			t.Fatal("the solver of a panicked search was put back in the pool")
		}
	}
	for _, f := range faults {
		if got, want := Generate(dsp, f, opts), NewSolver(dsp, opts).Generate(f); !sameResult(got, want) {
			t.Fatalf("fault %v after the panic:\n got %+v\nwant %+v", f, got, want)
		}
	}
}

// TestGenerateConcurrentCallers runs the one-shot Generate on four
// goroutines over interleaved dsp and shifter faults, the shifter under
// two modes, so the callers take, drop and put back solvers of three
// kinds from the one pool. At GOMAXPROCS 1, 2 and 4 every result must
// equal the serial run's.
func TestGenerateConcurrentCallers(t *testing.T) {
	dsp, dspOpts, dspFaults, shifter, mode, mode00, shFaults := poolFixture(t)
	mode01 := Options{Fixed: map[logic.NetID]bool{mode[0]: true, mode[1]: false}, MaxBacktracks: 600}
	type job struct {
		n    *logic.Netlist
		opts Options
		f    fault.Fault
	}
	var jobs []job
	for k := range max(len(dspFaults), len(shFaults)) {
		if k < len(dspFaults) {
			jobs = append(jobs, job{dsp, dspOpts, dspFaults[k]})
		}
		if k < len(shFaults) {
			jobs = append(jobs, job{shifter, mode00, shFaults[k]}, job{shifter, mode01, shFaults[k]})
		}
	}
	want := make([]Result, len(jobs))
	for k, j := range jobs {
		want[k] = NewSolver(j.n, j.opts).Generate(j.f)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := make([]Result, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1) - 1); k < len(jobs); k = int(next.Add(1) - 1) {
					got[k] = Generate(jobs[k].n, jobs[k].f, jobs[k].opts)
				}
			}()
		}
		wg.Wait()
		for k := range jobs {
			if !sameResult(got[k], want[k]) {
				t.Fatalf("GOMAXPROCS %d, job %d (fault %v):\n got %+v\nwant %+v", procs, k, jobs[k].f, got[k], want[k])
			}
		}
	}
}

// TestGenerateOneShotAllocs pins what a one-shot Generate costs once a
// solver for its netlist and options is idle: an untestable dsp fault
// under the full-scan bound, whose Result has no assignment to
// allocate, takes at most a few allocations instead of a solver's
// dozens. Race builds are skipped: there sync.Pool drops a quarter of
// what it is given, by design.
func TestGenerateOneShotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	dsp, opts, _, _, _, _, _ := poolFixture(t)
	all, _ := fault.Collapse(dsp, fault.AllFaults(dsp))
	s := NewSolver(dsp, opts)
	var f fault.Fault
	for k, stride := 0, len(all)/200; ; k++ {
		if k == 200 {
			t.Fatal("no untestable fault in the golden's dsp sample")
		}
		if f = all[k*stride]; s.Generate(f).Status == Untestable {
			break
		}
	}
	Generate(dsp, f, opts) // warm-up: builds the solver the runs reuse
	if n := testing.AllocsPerRun(20, func() { Generate(dsp, f, opts) }); n > 8 {
		t.Fatalf("one-shot Generate of an untestable dsp fault: %.1f allocations per run, want at most 8", n)
	}
}
