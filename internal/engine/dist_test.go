package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bist"
	"repro/internal/fault"
)

// startTestWorkers runs n in-process workers against a pool: the same
// Acquire → RunWorkUnit → Complete loop cmd/sbst-worker executes, minus
// HTTP. Returns a stop function.
func startTestWorkers(t *testing.T, p *LeasePool, n int) func() {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		worker := string(rune('a' + i))
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l, err := p.Acquire(api.LeaseRequest{WorkerID: "test-worker-" + worker})
				if err != nil || l == nil {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				res, rerr := RunWorkUnit(context.Background(), l.WorkerID, l.Unit, ExecConfig{}, nil)
				if rerr != nil {
					_ = p.Fail(l.ID, api.LeaseFailure{WorkerID: l.WorkerID, Reason: rerr.Error()})
					continue
				}
				_ = p.Complete(l.ID, res)
			}
		}()
	}
	return func() { close(stop); wg.Wait() }
}

// TestDistExecutorBitIdentical is the heart of the protocol: a campaign
// split into units, executed by concurrent workers and merged by the
// lease pool must be bit-identical to the serial oracle — same
// DetectedAt array, same Detections counts, same coverage.
func TestDistExecutorBitIdentical(t *testing.T) {
	core, faults := testCore(t)
	count := 120
	if testing.Short() {
		count = 48
	}

	p := NewLeasePool(PoolOptions{TTL: 5 * time.Second})
	defer p.Close()
	stop := startTestWorkers(t, p, 2)
	defer stop()

	var mu sync.Mutex
	merged := map[string]*fault.Result{}
	exec := NewDistExecutor(ExecConfig{}, p, DistOptions{
		Units: 4,
		OnMerged: func(jobID string, res *fault.Result) {
			mu.Lock()
			merged[jobID] = res
			mu.Unlock()
		},
	})

	t.Run("fault_sim", func(t *testing.T) {
		spec := JobSpec{Kind: JobFaultSim,
			Vectors: VectorSource{Kind: api.VecBIST, Count: count, Seed: 1}}
		jr, err := exec(withJobID(context.Background(), "dist-fs"), spec, func(Progress) {})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := fault.Simulate(core.Netlist, bist.PseudorandomVectors(count, 1),
			fault.SimOptions{Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		res := merged["dist-fs"]
		if res == nil {
			t.Fatal("OnMerged never fired for dist-fs")
		}
		if len(res.DetectedAt) != len(oracle.DetectedAt) {
			t.Fatalf("merged %d faults, oracle %d", len(res.DetectedAt), len(oracle.DetectedAt))
		}
		for i := range oracle.DetectedAt {
			if res.DetectedAt[i] != oracle.DetectedAt[i] {
				t.Fatalf("DetectedAt[%d] = %d, oracle %d — distributed run is not bit-identical",
					i, res.DetectedAt[i], oracle.DetectedAt[i])
			}
		}
		if jr.Coverage != oracle.Coverage() || jr.Cycles != oracle.Cycles || jr.Detected != oracle.Detected() {
			t.Fatalf("summary (%v, %d, %d) diverged from oracle (%v, %d, %d)",
				jr.Coverage, jr.Cycles, jr.Detected, oracle.Coverage(), oracle.Cycles, oracle.Detected())
		}
	})

	t.Run("n_detect", func(t *testing.T) {
		spec := JobSpec{Kind: JobNDetect, NDetect: 3,
			Vectors: VectorSource{Kind: api.VecBIST, Count: count, Seed: 1}}
		jr, err := exec(withJobID(context.Background(), "dist-nd"), spec, func(Progress) {})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := fault.Simulate(core.Netlist, bist.PseudorandomVectors(count, 1),
			fault.SimOptions{Faults: faults, NDetect: 3})
		if err != nil {
			t.Fatal(err)
		}
		res := merged["dist-nd"]
		if res == nil || res.Detections == nil {
			t.Fatal("n-detect merge missing detections bitmap")
		}
		for i := range oracle.Detections {
			if res.Detections[i] != oracle.Detections[i] {
				t.Fatalf("Detections[%d] = %d, oracle %d", i, res.Detections[i], oracle.Detections[i])
			}
		}
		if jr.NDetect != 3 || jr.NDetectCoverage != oracle.NDetectCoverage(3) {
			t.Fatalf("n-detect summary (%d, %v) vs oracle %v", jr.NDetect, jr.NDetectCoverage, oracle.NDetectCoverage(3))
		}
	})
}

// TestDistExecutorFallsBackForUnknownKind: kinds the distributed path
// does not handle route to the local executor (which rejects unknowns).
func TestDistExecutorFallsBackForUnknownKind(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: time.Second})
	defer p.Close()
	exec := NewDistExecutor(ExecConfig{}, p, DistOptions{Units: 2})
	_, err := exec(context.Background(), JobSpec{Kind: "bogus"}, func(Progress) {})
	if err == nil || !strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("unknown kind through dist executor = %v", err)
	}
}

// TestRunWorkUnitValidation: a worker refuses units that disagree with
// its own build of the core (version skew) or carry bad ranges.
func TestRunWorkUnitValidation(t *testing.T) {
	_, faults := testCore(t)
	base := api.WorkUnit{
		JobID: "job-1", Unit: 0, Units: 1,
		Spec:    JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: api.VecBIST, Count: 4, Seed: 1}},
		FaultLo: 0, FaultHi: len(faults), TotalFaults: len(faults),
	}

	skew := base
	skew.TotalFaults = len(faults) + 1
	if _, err := RunWorkUnit(context.Background(), "w", skew, ExecConfig{}, nil); err == nil ||
		!strings.Contains(err.Error(), "mismatched design") {
		t.Fatalf("mismatched fault count = %v, want refusal", err)
	}

	bad := base
	bad.FaultLo, bad.FaultHi = 10, 5
	if _, err := RunWorkUnit(context.Background(), "w", bad, ExecConfig{}, nil); err == nil ||
		!strings.Contains(err.Error(), "bad fault range") {
		t.Fatalf("inverted range = %v, want refusal", err)
	}
}

// TestDistFleetInvariance: whatever runs the pool grants — one worker
// taking a whole job, or several splitting it — the merged campaign is
// bit-identical to the serial oracle, for 1, 2 and 3 workers and 1, 3
// and 8 units, on a plain and an n-detect spec.
func TestDistFleetInvariance(t *testing.T) {
	const design = "bench/c432"
	d, err := GetDesign(design)
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Kind: JobFaultSim, Design: design, Vectors: VectorSource{Kind: api.VecBIST, Count: 256, Seed: 3}},
		{Kind: JobNDetect, Design: design, NDetect: 3, Vectors: VectorSource{Kind: api.VecBIST, Count: 256, Seed: 3}},
	}
	oracles := make([]*fault.Result, len(specs))
	for i, spec := range specs {
		vecs, err := resolveVectors(d, spec.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i], err = fault.Simulate(d.Netlist, vecs, fault.SimOptions{Faults: d.Faults, NDetect: spec.NDetect})
		if err != nil {
			t.Fatal(err)
		}
	}
	if oracles[1].Detections == nil {
		t.Fatal("the n-detect oracle carries no detection counts")
	}
	for _, workers := range []int{1, 2, 3} {
		for _, units := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("workers=%d/units=%d", workers, units), func(t *testing.T) {
				p := NewLeasePool(PoolOptions{TTL: 5 * time.Second})
				defer p.Close()
				stop := startTestWorkers(t, p, workers)
				defer stop()
				var mu sync.Mutex
				merged := map[string]*fault.Result{}
				exec := NewDistExecutor(ExecConfig{}, p, DistOptions{
					Units: units,
					OnMerged: func(jobID string, res *fault.Result) {
						mu.Lock()
						merged[jobID] = res
						mu.Unlock()
					},
				})
				for i, spec := range specs {
					id := fmt.Sprintf("inv-%d", i)
					if _, err := exec(withJobID(context.Background(), id), spec, func(Progress) {}); err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					res := merged[id]
					mu.Unlock()
					if res == nil {
						t.Fatalf("%s: OnMerged never fired", spec.Kind)
					}
					if !slices.Equal(res.DetectedAt, oracles[i].DetectedAt) ||
						!slices.Equal(res.Detections, oracles[i].Detections) {
						t.Fatalf("%s: merged bitmaps differ from the serial oracle", spec.Kind)
					}
				}
			})
		}
	}
}
