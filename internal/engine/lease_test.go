package engine

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

func poolSpec() JobSpec {
	return JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: api.VecBIST, Count: 16, Seed: 1}}
}

// acquireNow polls Acquire past backoff gates until a lease is granted.
func acquireNow(t *testing.T, p *LeasePool, worker string) *api.Lease {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		l, err := p.Acquire(api.LeaseRequest{WorkerID: worker})
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if l != nil {
			return l
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no lease granted within 5s")
	return nil
}

// identityResult packs a unit upload whose DetectedAt values equal the
// global fault indices they cover — any mis-merge (wrong slice, wrong
// offset) becomes visible in the merged array.
func identityResult(worker string, u api.WorkUnit, cycles int) *api.UnitResult {
	det := make([]int32, u.FaultHi-u.FaultLo)
	for i := range det {
		det[i] = int32(u.FaultLo + i)
	}
	return api.NewUnitResult(worker, det, nil, cycles, 0.1)
}

// TestUnitRangePartition: the shard planner tiles [0,total) exactly —
// the same arithmetic Simulate uses, so worker units and in-process
// shards agree on fault slices by construction.
func TestUnitRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, total int }{
		{1, 10}, {3, 10}, {7, 9320}, {16, 9320}, {10, 10},
	} {
		prev := 0
		for i := 0; i < tc.n; i++ {
			lo, hi := unitRange(i, tc.n, tc.total)
			if lo != prev {
				t.Fatalf("unitRange(%d,%d,%d): lo=%d, want %d (gap or overlap)", i, tc.n, tc.total, lo, prev)
			}
			if hi < lo {
				t.Fatalf("unitRange(%d,%d,%d): hi=%d < lo=%d", i, tc.n, tc.total, hi, lo)
			}
			if want := i * tc.total / tc.n; lo != want {
				t.Fatalf("planner drifted from Simulate arithmetic: lo=%d want %d", lo, want)
			}
			prev = hi
		}
		if prev != tc.total {
			t.Fatalf("unitRange(%d units, %d faults) covers [0,%d)", tc.n, tc.total, prev)
		}
	}
}

// pollIdle has each worker poll an empty pool once, so the pool counts
// it live when it sizes the next grants.
func pollIdle(t *testing.T, p *LeasePool, workers ...string) {
	t.Helper()
	for _, w := range workers {
		if l, err := p.Acquire(api.LeaseRequest{WorkerID: w}); err != nil || l != nil {
			t.Fatalf("poll by %s on an idle pool = (%v, %v), want (nil, nil)", w, l, err)
		}
	}
}

// TestLeasePoolLifecycle drives a 3-unit job through grant → upload →
// merge and checks the merged bitmap against the identity pattern.
// Three live workers share three units, so every grant is one unit.
func TestLeasePoolLifecycle(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: time.Second})
	defer p.Close()

	pollIdle(t, p, "w2", "w3")
	h, err := p.Register("job-1", poolSpec(), 10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := p.Counts(); c.Pending != 3 || c.Leased != 0 || c.Done != 0 {
		t.Fatalf("fresh counts = %+v", c)
	}

	var leases []*api.Lease
	wantRanges := [][2]int{{0, 3}, {3, 6}, {6, 10}}
	for i := 0; i < 3; i++ {
		l := acquireNow(t, p, "w1")
		if l.Unit.FaultLo != wantRanges[i][0] || l.Unit.FaultHi != wantRanges[i][1] {
			t.Fatalf("unit %d range [%d,%d), want %v", i, l.Unit.FaultLo, l.Unit.FaultHi, wantRanges[i])
		}
		if l.Unit.TotalFaults != 10 || l.Unit.Units != 3 || l.Attempt != 0 {
			t.Fatalf("lease %d malformed: %+v", i, l)
		}
		leases = append(leases, l)
	}
	if extra, err := p.Acquire(api.LeaseRequest{WorkerID: "w2"}); err != nil || extra != nil {
		t.Fatalf("acquire with all units leased = (%v, %v), want (nil, nil)", extra, err)
	}

	// Complete two units, then check the live distribution snapshot.
	for _, l := range leases[:2] {
		if err := p.Complete(l.ID, identityResult("w1", l.Unit, 16)); err != nil {
			t.Fatalf("complete %s: %v", l.ID, err)
		}
	}
	st := p.SnapshotJob("job-1")
	if st == nil || st.Units != 3 || len(st.Completed) != 2 {
		t.Fatalf("mid-flight snapshot = %+v", st)
	}
	if err := p.Complete(leases[2].ID, identityResult("w1", leases[2].Unit, 16)); err != nil {
		t.Fatal(err)
	}

	merge, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if merge.Cycles != 16 || len(merge.DetectedAt) != 10 || merge.Detections != nil {
		t.Fatalf("merge = cycles %d, %d faults, detections %v", merge.Cycles, len(merge.DetectedAt), merge.Detections)
	}
	for i, v := range merge.DetectedAt {
		if v != int32(i) {
			t.Fatalf("merged DetectedAt[%d] = %d, want %d (mis-merged slice)", i, v, i)
		}
	}
	if st := p.SnapshotJob("job-1"); st != nil {
		t.Fatalf("job still registered after Wait: %+v", st)
	}
}

// TestLeaseExpiryRequeues: a worker that stops heartbeating loses its
// lease; the unit is re-offered with an attempt charge and late calls on
// the dead lease answer lease_gone.
func TestLeaseExpiryRequeues(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: 30 * time.Millisecond, RetryBase: 2 * time.Millisecond, RetryMax: 4 * time.Millisecond})
	defer p.Close()
	h, err := p.Register("job-1", poolSpec(), 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	dead := acquireNow(t, p, "doomed")
	time.Sleep(120 * time.Millisecond) // several scanner passes past the TTL

	if _, err := p.Heartbeat(dead.ID, api.Heartbeat{WorkerID: "doomed"}); !isCode(err, api.CodeLeaseGone) {
		t.Fatalf("heartbeat on expired lease = %v, want lease_gone", err)
	}
	if err := p.Complete(dead.ID, identityResult("doomed", dead.Unit, 16)); !isCode(err, api.CodeLeaseGone) {
		t.Fatalf("complete on expired lease = %v, want lease_gone", err)
	}

	fresh := acquireNow(t, p, "w2")
	if fresh.ID == dead.ID || fresh.Attempt != 1 {
		t.Fatalf("reissued lease = %+v, want new ID with attempt 1", fresh)
	}
	if err := p.Complete(fresh.ID, identityResult("w2", fresh.Unit, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatalf("campaign should survive one lost lease: %v", err)
	}
}

// TestLeaseBadResultRequeues: corrupted or mis-shaped uploads are
// rejected with bad_result and cost the unit a retry — never a wrong
// campaign.
func TestLeaseBadResultRequeues(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: time.Second, UnitAttempts: 5, RetryBase: 2 * time.Millisecond, RetryMax: 4 * time.Millisecond})
	defer p.Close()
	h, err := p.Register("job-1", poolSpec(), 6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Upload 1: checksum flipped after packing.
	l := acquireNow(t, p, "w1")
	res := identityResult("w1", l.Unit, 16)
	res.Checksum ^= 1
	if err := p.Complete(l.ID, res); !isCode(err, api.CodeBadResult) {
		t.Fatalf("checksum-corrupt upload = %v, want bad_result", err)
	}

	// Upload 2: wrong slice width.
	l = acquireNow(t, p, "w1")
	short := api.NewUnitResult("w1", []int32{1, 2, 3}, nil, 16, 0)
	if err := p.Complete(l.ID, short); !isCode(err, api.CodeBadResult) {
		t.Fatalf("short upload = %v, want bad_result", err)
	}

	// Upload 3: detections bitmap on a non-n-detect campaign.
	l = acquireNow(t, p, "w1")
	wide := api.NewUnitResult("w1", make([]int32, 6), make([]int32, 6), 16, 0)
	if err := p.Complete(l.ID, wide); !isCode(err, api.CodeBadResult) {
		t.Fatalf("mismatched-mode upload = %v, want bad_result", err)
	}

	// A clean upload within the attempt budget still lands the campaign.
	l = acquireNow(t, p, "w1")
	if l.Attempt != 3 {
		t.Fatalf("attempt = %d after three rejected uploads, want 3", l.Attempt)
	}
	if err := p.Complete(l.ID, identityResult("w1", l.Unit, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseAttemptsExhaustFailJob: a unit that keeps failing consumes
// its budget and fails the whole job with a terminal (non-retryable at
// the lease level) error.
func TestLeaseAttemptsExhaustFailJob(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: time.Second, UnitAttempts: 2, RetryBase: 2 * time.Millisecond, RetryMax: 4 * time.Millisecond})
	defer p.Close()
	h, err := p.Register("job-1", poolSpec(), 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l := acquireNow(t, p, "w1")
		if err := p.Fail(l.ID, api.LeaseFailure{WorkerID: "w1", Reason: "simulated crash"}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = h.Wait(context.Background())
	if err == nil || api.IsRetryable(err) {
		t.Fatalf("exhausted job Wait = %v, want terminal error", err)
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeInternal {
		t.Fatalf("exhausted job error = %v, want internal envelope", err)
	}
	if l, err := p.Acquire(api.LeaseRequest{WorkerID: "w1"}); err != nil || l != nil {
		t.Fatalf("failed job still offers work: (%v, %v)", l, err)
	}
}

// TestLeasePoolCloseAndCancel: shutdown fails waiters retryably, and a
// cancelled executor withdraws its job so stray workers get lease_gone.
func TestLeasePoolCloseAndCancel(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: time.Second})
	h, err := p.Register("job-1", poolSpec(), 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := acquireNow(t, p, "w1")
	p.Close()
	if _, err := h.Wait(context.Background()); !api.IsRetryable(err) {
		t.Fatalf("Wait after Close = %v, want retryable", err)
	}
	if err := p.Complete(l.ID, identityResult("w1", l.Unit, 16)); !isCode(err, api.CodeLeaseGone) {
		t.Fatalf("complete after Close = %v, want lease_gone", err)
	}

	p2 := NewLeasePool(PoolOptions{TTL: time.Second})
	defer p2.Close()
	h2, err := p2.Register("job-2", poolSpec(), 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2 := acquireNow(t, p2, "w1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h2.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait = %v", err)
	}
	if err := p2.Complete(l2.ID, identityResult("w1", l2.Unit, 16)); !isCode(err, api.CodeLeaseGone) {
		t.Fatalf("complete after withdrawal = %v, want lease_gone", err)
	}
}

// TestHeartbeatAggregatesProgress: worker heartbeats roll up into the
// job-level snapshot with the frontier (minimum) cycle count, feeding
// the queue's stuck-job watchdog.
func TestHeartbeatAggregatesProgress(t *testing.T) {
	var mu sync.Mutex
	var last api.Progress
	p := NewLeasePool(PoolOptions{TTL: time.Second})
	defer p.Close()
	pollIdle(t, p, "w2")
	_, err := p.Register("job-1", poolSpec(), 10, 2, func(pr api.Progress) {
		mu.Lock()
		last = pr
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	l0 := acquireNow(t, p, "w1")
	l1 := acquireNow(t, p, "w2")
	ack, err := p.Heartbeat(l0.ID, api.Heartbeat{WorkerID: "w1",
		Progress: api.Progress{Done: 10, Total: 16, Detected: 3, Remaining: 2}})
	if err != nil || ack.TTLMillis <= 0 {
		t.Fatalf("heartbeat = (%+v, %v)", ack, err)
	}
	if _, err := p.Heartbeat(l1.ID, api.Heartbeat{WorkerID: "w2",
		Progress: api.Progress{Done: 4, Total: 16, Detected: 1, Remaining: 4}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last.Done != 4 || last.Total != 16 || last.Detected != 4 || last.Remaining != 6 {
		t.Fatalf("aggregated progress = %+v, want frontier 4/16 with summed counts", last)
	}
}

// isCode reports whether err is an *api.Error with the given code.
func isCode(err error, code string) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Code == code
}

// TestStaleLeaseAcrossPoolsRejected: a worker still holding a lease from
// a coordinator that has since restarted must not feed the new
// coordinator's campaigns. The restarted pool issues its own lease IDs,
// and a call that names a lease the caller does not hold answers
// lease_gone, so the stale heartbeat and upload land nowhere.
func TestStaleLeaseAcrossPoolsRejected(t *testing.T) {
	p1 := NewLeasePool(PoolOptions{TTL: time.Second})
	if _, err := p1.Register("job-1", poolSpec(), 8, 2, nil); err != nil {
		t.Fatal(err)
	}
	stale := acquireNow(t, p1, "w1")
	p1.Close()

	p2 := NewLeasePool(PoolOptions{TTL: time.Second})
	defer p2.Close()
	h2, err := p2.Register("job-2", poolSpec(), 8, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Register("job-1", poolSpec(), 8, 2, nil); err != nil {
		t.Fatal(err)
	}
	fresh := acquireNow(t, p2, "w2")
	if fresh.Unit.JobID != "job-2" {
		t.Fatalf("first grant went to %s, want job-2", fresh.Unit.JobID)
	}

	if _, err := p2.Heartbeat(stale.ID, api.Heartbeat{WorkerID: "w1"}); !isCode(err, api.CodeLeaseGone) {
		t.Errorf("heartbeat on the previous coordinator's lease = %v, want lease_gone", err)
	}
	bogus := make([]int32, stale.Unit.FaultHi-stale.Unit.FaultLo)
	for i := range bogus {
		bogus[i] = 777
	}
	if err := p2.Complete(stale.ID, api.NewUnitResult("w1", bogus, nil, 16, 0)); !isCode(err, api.CodeLeaseGone) {
		t.Errorf("upload on the previous coordinator's lease = %v, want lease_gone", err)
	}

	if err := p2.Complete(fresh.ID, identityResult("w2", fresh.Unit, 16)); err != nil {
		t.Fatalf("holder's upload: %v", err)
	}
	drainPool(t, p2, "w2", h2)
	checkIdentity(t, h2)
}

// TestLeaseCallsCheckHolder: heartbeat, upload and fail on a lease the
// caller does not hold answer lease_gone and leave the lease with its
// holder.
func TestLeaseCallsCheckHolder(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: time.Second})
	defer p.Close()
	h, err := p.Register("job-1", poolSpec(), 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := acquireNow(t, p, "w1")
	if _, err := p.Heartbeat(l.ID, api.Heartbeat{WorkerID: "w2"}); !isCode(err, api.CodeLeaseGone) {
		t.Fatalf("heartbeat by a non-holder = %v, want lease_gone", err)
	}
	if err := p.Complete(l.ID, identityResult("w2", l.Unit, 16)); !isCode(err, api.CodeLeaseGone) {
		t.Fatalf("upload by a non-holder = %v, want lease_gone", err)
	}
	if err := p.Fail(l.ID, api.LeaseFailure{WorkerID: "w2", Reason: "not mine"}); !isCode(err, api.CodeLeaseGone) {
		t.Fatalf("fail by a non-holder = %v, want lease_gone", err)
	}
	if _, err := p.Heartbeat(l.ID, api.Heartbeat{WorkerID: "w1"}); err != nil {
		t.Fatalf("holder's heartbeat after the rejected calls: %v", err)
	}
	if err := p.Complete(l.ID, identityResult("w1", l.Unit, 16)); err != nil {
		t.Fatalf("holder's upload after the rejected calls: %v", err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// drainPool completes every lease the worker can get until the job's
// units are all merged, returning the (unit, unit_end) run of each grant
// in order.
func drainPool(t *testing.T, p *LeasePool, worker string, h *DistHandle) [][2]int {
	t.Helper()
	var runs [][2]int
	for {
		select {
		case <-h.job.done:
			return runs
		default:
		}
		l, err := p.Acquire(api.LeaseRequest{WorkerID: worker})
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		runs = append(runs, [2]int{l.Unit.Unit, l.Unit.UnitEnd})
		if err := p.Complete(l.ID, identityResult(worker, l.Unit, 16)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkIdentity waits for the job and checks the merged bitmap against
// the identity pattern.
func checkIdentity(t *testing.T, h *DistHandle) {
	t.Helper()
	merge, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range merge.DetectedAt {
		if v != int32(i) {
			t.Fatalf("merged DetectedAt[%d] = %d, want %d (mis-merged run)", i, v, i)
		}
	}
}

// TestRangeLeaseSingleWorker: a lone live worker takes the whole job in
// one lease and uploads one bitmap over every unit.
func TestRangeLeaseSingleWorker(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: time.Second})
	defer p.Close()
	h, err := p.Register("job-1", poolSpec(), 10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := acquireNow(t, p, "w1")
	if u := l.Unit; u.Unit != 0 || u.UnitEnd != 3 || u.Units != 3 || u.FaultLo != 0 || u.FaultHi != 10 {
		t.Fatalf("lone worker's lease covers units [%d,%d) of %d, faults [%d,%d); want [0,3) of 3, [0,10)",
			u.Unit, u.UnitEnd, u.Units, u.FaultLo, u.FaultHi)
	}
	if c := p.Counts(); c.Pending != 0 || c.Leased != 3 {
		t.Fatalf("counts after the range grant = %+v, want 3 leased", c)
	}
	if err := p.Complete(l.ID, identityResult("w1", l.Unit, 16)); err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, h)
}

// TestRangeLeaseGuidedRuns: two live workers on eight units get runs of
// 4, 2, 1 and 1 — half of what is left each time, rounded up — tiling
// the job in order.
func TestRangeLeaseGuidedRuns(t *testing.T) {
	p := NewLeasePool(PoolOptions{TTL: time.Second})
	defer p.Close()
	pollIdle(t, p, "w2")
	h, err := p.Register("job-1", poolSpec(), 16, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var leases []*api.Lease
	next := 0
	for i, want := range []int{4, 2, 1, 1} {
		worker := []string{"w1", "w2"}[i%2]
		l := acquireNow(t, p, worker)
		u := l.Unit
		if u.Unit != next || u.UnitEnd-u.Unit != want {
			t.Fatalf("grant %d covers units [%d,%d), want %d units from %d", i, u.Unit, u.UnitEnd, want, next)
		}
		if lo, _ := unitRange(u.Unit, 8, 16); u.FaultLo != lo {
			t.Fatalf("grant %d starts at fault %d, want %d", i, u.FaultLo, lo)
		}
		if _, hi := unitRange(u.UnitEnd-1, 8, 16); u.FaultHi != hi {
			t.Fatalf("grant %d ends at fault %d, want %d", i, u.FaultHi, hi)
		}
		next = u.UnitEnd
		leases = append(leases, l)
	}
	if l, err := p.Acquire(api.LeaseRequest{WorkerID: "w1"}); err != nil || l != nil {
		t.Fatalf("acquire with every unit leased = (%v, %v), want (nil, nil)", l, err)
	}
	for _, l := range leases {
		if err := p.Complete(l.ID, identityResult(l.WorkerID, l.Unit, 16)); err != nil {
			t.Fatal(err)
		}
	}
	checkIdentity(t, h)
}

// TestRangeLeaseRequeuesEveryUnit: an expired lease, a failed one and a
// rejected upload each put every covered unit back with one attempt
// charged, and the re-grants still merge the identity pattern.
func TestRangeLeaseRequeuesEveryUnit(t *testing.T) {
	for _, tc := range []struct {
		name string
		ttl  time.Duration
		lose func(t *testing.T, p *LeasePool, l *api.Lease)
	}{
		{"expiry", 30 * time.Millisecond, func(t *testing.T, p *LeasePool, l *api.Lease) {
			deadline := time.Now().Add(5 * time.Second)
			for p.Counts().Leased != 0 {
				if time.Now().After(deadline) {
					t.Fatal("range lease never expired")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}},
		{"fail", time.Second, func(t *testing.T, p *LeasePool, l *api.Lease) {
			if err := p.Fail(l.ID, api.LeaseFailure{WorkerID: l.WorkerID, Reason: "simulated crash"}); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad_result", time.Second, func(t *testing.T, p *LeasePool, l *api.Lease) {
			res := identityResult(l.WorkerID, l.Unit, 16)
			res.Checksum ^= 1
			if err := p.Complete(l.ID, res); !isCode(err, api.CodeBadResult) {
				t.Fatalf("corrupt upload = %v, want bad_result", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewLeasePool(PoolOptions{TTL: tc.ttl, RetryBase: 2 * time.Millisecond, RetryMax: 4 * time.Millisecond})
			defer p.Close()
			h, err := p.Register("job-1", poolSpec(), 12, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			l := acquireNow(t, p, "w1")
			if l.Unit.Unit != 0 || l.Unit.UnitEnd != 4 {
				t.Fatalf("first grant covers [%d,%d), want [0,4)", l.Unit.Unit, l.Unit.UnitEnd)
			}
			tc.lose(t, p, l)
			st := p.SnapshotJob("job-1")
			if c := p.Counts(); c.Pending != 4 || c.Leased != 0 {
				t.Fatalf("counts after losing the range = %+v, want 4 pending", c)
			}
			for i, a := range st.Attempts {
				if a != 1 {
					t.Fatalf("unit %d charged %d attempts, want 1 (attempts %v)", i, a, st.Attempts)
				}
			}
			// Each unit backs off on its own jitter, so the re-grants may
			// come in any order; together they must tile [0,4) once.
			runs := drainPool(t, p, "w1", h)
			slices.SortFunc(runs, func(a, b [2]int) int { return a[0] - b[0] })
			covered := 0
			for _, r := range runs {
				if r[0] != covered {
					t.Fatalf("re-grants %v leave a gap or overlap at unit %d", runs, covered)
				}
				covered = r[1]
			}
			if covered != 4 {
				t.Fatalf("re-grants %v cover units [0,%d), want [0,4)", runs, covered)
			}
			checkIdentity(t, h)
		})
	}
}

// TestLeaseLiveWorkersExpireAfterTTL: a worker silent for longer than the TTL
// no longer shares the pending units, so the next grant grows.
func TestLeaseLiveWorkersExpireAfterTTL(t *testing.T) {
	var clock atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	p := NewLeasePool(PoolOptions{TTL: time.Minute, now: func() time.Time {
		return base.Add(time.Duration(clock.Load()))
	}})
	defer p.Close()
	pollIdle(t, p, "w2")
	clock.Store(int64(30 * time.Second))
	if _, err := p.Register("job-1", poolSpec(), 16, 8, nil); err != nil {
		t.Fatal(err)
	}
	l := acquireNow(t, p, "w1")
	if n := l.Unit.UnitEnd - l.Unit.Unit; n != 4 {
		t.Fatalf("grant with w2 heard 30s ago covers %d units, want 4", n)
	}
	clock.Store(int64(61 * time.Second))
	l = acquireNow(t, p, "w1")
	if n := l.Unit.UnitEnd - l.Unit.Unit; n != 4 {
		t.Fatalf("grant with w2 silent past the TTL covers %d units, want all 4 left", n)
	}
}

// TestRangeLeaseHeartbeatAggregates: a heartbeat over a range lease rolls up
// to the same job frontier and sums as the same progress reported on
// one lease per unit.
func TestRangeLeaseHeartbeatAggregates(t *testing.T) {
	run := func(t *testing.T, idle []string, beats []api.Progress) api.Progress {
		var mu sync.Mutex
		var last api.Progress
		p := NewLeasePool(PoolOptions{TTL: time.Second})
		defer p.Close()
		pollIdle(t, p, idle...)
		if _, err := p.Register("job-1", poolSpec(), 9, 3, func(pr api.Progress) {
			mu.Lock()
			last = pr
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		workers := append([]string{"w1"}, idle...)
		for i, pr := range beats {
			l := acquireNow(t, p, workers[i])
			if _, err := p.Heartbeat(l.ID, api.Heartbeat{WorkerID: workers[i], Progress: pr}); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return last
	}
	perUnit := run(t, []string{"w2", "w3"}, []api.Progress{
		{Done: 10, Total: 16, Detected: 3, Remaining: 2},
		{Done: 10, Total: 16, Detected: 1, Remaining: 4},
		{Done: 4, Total: 16, Detected: 2, Remaining: 1},
	})
	ranged := run(t, []string{"w2"}, []api.Progress{
		{Done: 10, Total: 16, Detected: 4, Remaining: 6},
		{Done: 4, Total: 16, Detected: 2, Remaining: 1},
	})
	want := api.Progress{Done: 4, Total: 16, Detected: 6, Remaining: 7, Coverage: 6.0 / 13}
	if perUnit != want || ranged != want {
		t.Fatalf("aggregated progress: per-unit leases %+v, range lease %+v, want %+v", perUnit, ranged, want)
	}
}
