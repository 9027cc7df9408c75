package worker

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bist"
	"repro/internal/client"
	"repro/internal/designs"
	"repro/internal/engine"
	"repro/internal/fault"
)

// TestDistributedCampaignE2E is the full distributed stack over real
// HTTP: a coordinator (queue + dist executor + lease pool + /v1
// server) and a small worker fleet, with one worker killed mid-lease.
// A doomed worker acquires the first lease, heartbeats once, and
// abandons it; the lease expires, the unit requeues, and three honest
// workers finish the campaign. The merged result must be bit-identical
// to a serial single-process simulation of the same spec.
func TestDistributedCampaignE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed e2e in -short mode")
	}
	d, err := engine.GetDesign(designs.DefaultID)
	if err != nil {
		t.Fatal(err)
	}
	core, faults := d.Core, d.Faults
	const (
		vecCount = 240
		vecSeed  = 7
		units    = 5
	)
	spec := api.JobSpec{
		Kind:    api.JobFaultSim,
		Vectors: api.VectorSource{Kind: api.VecBIST, Count: vecCount, Seed: vecSeed},
	}

	// Coordinator: a TTL short enough that the abandoned lease expires
	// within the test, but long enough that honest workers on a loaded
	// single-core machine (unit sims are CPU-bound) keep their leases.
	pool := engine.NewLeasePool(engine.PoolOptions{
		TTL:          time.Second,
		UnitAttempts: 3,
		RetryBase:    time.Millisecond,
		RetryMax:     5 * time.Millisecond,
	})
	defer pool.Close()

	var mu sync.Mutex
	var merged *fault.Result
	exec := engine.NewDistExecutor(engine.ExecConfig{Workers: 2}, pool, engine.DistOptions{
		Units: units,
		OnMerged: func(jobID string, res *fault.Result) {
			mu.Lock()
			merged = res
			mu.Unlock()
		},
	})
	q := engine.NewQueue(engine.QueueOptions{
		Workers:    1,
		MaxPending: 8,
		Exec:       exec,
		DistState:  pool.SnapshotJob,
	})
	q.Start()
	srv := httptest.NewServer(engine.NewServerWith(q, engine.ServerOptions{Pool: pool}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fastClient := func() *client.Client {
		return client.New(srv.URL, client.Options{
			RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, MaxRetries: 4,
		})
	}
	c := fastClient()

	job, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker: grab the first lease the coordinator offers,
	// heartbeat once like a healthy worker would, then vanish without
	// completing or failing it — the crash-mid-unit schedule.
	var doomed *api.Lease
	for doomed == nil {
		if ctx.Err() != nil {
			t.Fatal("no lease offered before timeout")
		}
		if doomed, err = c.AcquireLease(ctx, "doomed"); err != nil {
			t.Fatal(err)
		}
		if doomed == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if _, err := c.HeartbeatLease(ctx, doomed.ID, api.Heartbeat{WorkerID: "doomed"}); err != nil {
		t.Fatalf("doomed heartbeat: %v", err)
	}

	// The honest fleet: three workers over the same HTTP surface.
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2", "w3"} {
		w := New(Options{
			Coordinator: srv.URL,
			ID:          id,
			Poll:        10 * time.Millisecond,
			Exec:        engine.ExecConfig{Workers: 1},
			Client:      fastClient(),
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(wctx); err != nil {
				t.Errorf("worker %s: %v", w.ID(), err)
			}
		}()
	}

	res, err := c.WaitResult(ctx, job.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitResult: %v", err)
	}
	stopWorkers()
	wg.Wait()

	// The abandoned lease must have expired and been given away, not
	// silently merged: a late call on it answers lease_gone.
	_, err = c.HeartbeatLease(ctx, doomed.ID, api.Heartbeat{WorkerID: "doomed"})
	var ae *api.Error
	if !api.AsError(err, &ae) || ae.Code != api.CodeLeaseGone {
		t.Fatalf("late heartbeat on abandoned lease = %v, want lease_gone", err)
	}

	// Serial oracle: the same spec in one process, no sharding games.
	vecs := bist.PseudorandomVectors(vecCount, vecSeed)
	want, err := fault.Simulate(core.Netlist, vecs, fault.SimOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := merged
	mu.Unlock()
	if got == nil {
		t.Fatal("OnMerged never fired")
	}
	if len(got.DetectedAt) != len(want.DetectedAt) {
		t.Fatalf("merged %d faults, oracle %d", len(got.DetectedAt), len(want.DetectedAt))
	}
	diffs := 0
	for i := range want.DetectedAt {
		if got.DetectedAt[i] != want.DetectedAt[i] {
			diffs++
			if diffs <= 5 {
				t.Errorf("fault %d: distributed DetectedAt=%d, serial=%d",
					i, got.DetectedAt[i], want.DetectedAt[i])
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d/%d faults diverge from the serial oracle", diffs, len(want.DetectedAt))
	}

	// And the headline numbers served over /v1 agree with the oracle.
	detected := 0
	for _, d := range want.DetectedAt {
		if d >= 0 {
			detected++
		}
	}
	if res.Faults != len(want.DetectedAt) || res.Detected != detected || res.Cycles != want.Cycles {
		t.Fatalf("served result %+v; oracle faults=%d detected=%d cycles=%d",
			res, len(want.DetectedAt), detected, want.Cycles)
	}

	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := q.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestWorkerHandshakeRejectsJobsOnlyServer: a worker pointed at a
// coordinator without a lease pool fails fast instead of polling
// forever.
func TestWorkerHandshakeRejectsJobsOnlyServer(t *testing.T) {
	q := engine.NewQueue(engine.QueueOptions{Workers: 1, MaxPending: 1,
		Exec: engine.NewExecutor(engine.ExecConfig{Workers: 1})})
	q.Start()
	srv := httptest.NewServer(engine.NewServerWith(q, engine.ServerOptions{}))
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Drain(ctx)
	}()

	w := New(Options{Coordinator: srv.URL, ID: "w-nolease",
		Client: client.New(srv.URL, client.Options{RetryBase: time.Millisecond, MaxRetries: 1})})
	err := w.Run(context.Background())
	if err == nil {
		t.Fatal("Run against a jobs-only server returned nil")
	}
}
