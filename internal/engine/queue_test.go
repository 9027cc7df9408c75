package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// specN builds a distinct valid spec (bist count doubles as a marker).
func specN(n int) JobSpec {
	return JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist", Count: n}}
}

func waitState(t *testing.T, q *Queue, id string, want JobState) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == want {
			return j
		}
		if (j.State == JobFailed || j.State == JobCompleted) && j.State != want {
			t.Fatalf("job %s reached terminal state %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Job{}
}

func TestQueueRunsJobsInOrder(t *testing.T) {
	var ran []int
	q := NewQueue(QueueOptions{
		Workers: 1,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			ran = append(ran, spec.Vectors.Count)
			update(Progress{Done: spec.Vectors.Count, Total: spec.Vectors.Count, Coverage: 0.5})
			return &JobResult{Coverage: 0.5, Cycles: spec.Vectors.Count}, nil
		},
	})
	q.Start()
	var ids []string
	for i := 1; i <= 3; i++ {
		j, err := q.Submit(specN(i * 100))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for i, id := range ids {
		j := waitState(t, q, id, JobCompleted)
		if j.Result == nil || j.Result.Cycles != (i+1)*100 {
			t.Fatalf("job %s result %+v", id, j.Result)
		}
		if j.Progress.Done != (i+1)*100 {
			t.Fatalf("job %s progress %+v not captured", id, j.Progress)
		}
		if j.Attempts != 1 || j.Started == nil || j.Finished == nil {
			t.Fatalf("job %s bookkeeping %+v", id, j)
		}
	}
	if fmt.Sprint(ran) != "[100 200 300]" {
		t.Fatalf("execution order %v", ran)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueSurvivesPanic is the retry-on-panic guarantee: a panicking
// job neither kills its worker nor drops queued work, and a second
// attempt can complete it.
func TestQueueSurvivesPanic(t *testing.T) {
	var calls atomic.Int32
	q := NewQueue(QueueOptions{
		Workers:     1,
		MaxAttempts: 2,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			if spec.Vectors.Count == 666 && calls.Add(1) == 1 {
				panic("simulated executor crash")
			}
			return &JobResult{Coverage: 1}, nil
		},
	})
	q.Start()
	crash, err := q.Submit(specN(666))
	if err != nil {
		t.Fatal(err)
	}
	after, err := q.Submit(specN(10))
	if err != nil {
		t.Fatal(err)
	}
	j := waitState(t, q, crash.ID, JobCompleted)
	if j.Attempts != 2 {
		t.Fatalf("crashing job completed after %d attempts, want 2", j.Attempts)
	}
	waitState(t, q, after.ID, JobCompleted)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueuePanicBudgetExhausted fails the job once attempts run out,
// keeping the panic message.
func TestQueuePanicBudgetExhausted(t *testing.T) {
	q := NewQueue(QueueOptions{
		Workers:     1,
		MaxAttempts: 2,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			panic("always crashing")
		},
	})
	q.Start()
	j, err := q.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := q.Get(j.ID)
		if got.State == JobFailed {
			if got.Attempts != 2 {
				t.Fatalf("failed after %d attempts, want 2", got.Attempts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = q.Drain(context.Background())
}

func TestQueueBoundedAndValidated(t *testing.T) {
	q := NewQueue(QueueOptions{
		MaxPending: 2,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return &JobResult{}, nil
		},
	})
	// Not started: submissions park in the pending buffer.
	if _, err := q.Submit(specN(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(specN(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(specN(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err %v, want ErrQueueFull", err)
	}
	if _, err := q.Submit(JobSpec{Kind: "nonsense"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := q.Submit(JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "bist"}}); err == nil {
		t.Fatal("bist source without count accepted")
	}
	if _, err := q.Submit(JobSpec{Kind: JobFaultSim,
		Vectors: VectorSource{Kind: "program", Program: "BOGUS r1"}}); err == nil {
		t.Fatal("unassemblable program accepted")
	}
}

// TestQueueDrainKeepsPendingQueued: a drain lets the running job finish,
// leaves queued jobs queued, and rejects new submissions.
func TestQueueDrainKeepsPendingQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	q := NewQueue(QueueOptions{
		Workers: 1,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			started <- struct{}{}
			<-release
			return &JobResult{Coverage: 0.9}, nil
		},
	})
	q.Start()
	first, _ := q.Submit(specN(1))
	second, _ := q.Submit(specN(2))
	<-started // first job is now running

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	// Drain must not finish while a job runs.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a job still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if j, _ := q.Get(first.ID); j.State != JobCompleted {
		t.Fatalf("running job state %s after drain, want completed", j.State)
	}
	if j, _ := q.Get(second.ID); j.State != JobQueued {
		t.Fatalf("pending job state %s after drain, want queued", j.State)
	}
	if _, err := q.Submit(specN(3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain err %v, want ErrDraining", err)
	}
}

// TestQueueForcedDrainRequeuesRunning: when the drain deadline expires,
// the running job is cancelled and returns to queued for resume.
func TestQueueForcedDrainRequeuesRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	q := NewQueue(QueueOptions{
		Workers: 1,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ErrInterrupted
		},
	})
	q.Start()
	j, _ := q.Submit(specN(1))
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err %v, want deadline exceeded", err)
	}
	got, _ := q.Get(j.ID)
	if got.State != JobQueued {
		t.Fatalf("interrupted job state %s, want queued for resume", got.State)
	}
	if got.Attempts != 0 {
		t.Fatalf("interrupted job consumed %d attempts, want 0", got.Attempts)
	}
}

// TestBackoffWindow holds the retry formula shared by the queue's jobs
// and the lease pool's units to its window at both callers' defaults:
// attempt a waits between d/2 and d, d = min(base·2^(a−1), max).
func TestBackoffWindow(t *testing.T) {
	for _, c := range []struct {
		caller    string
		base, max time.Duration
	}{
		{"queue", 50 * time.Millisecond, 5 * time.Second},
		{"lease pool", 100 * time.Millisecond, 5 * time.Second},
	} {
		rng := rand.New(rand.NewSource(1))
		for a := 1; a <= 8; a++ {
			d := min(c.base<<(a-1), c.max)
			for draw := 0; draw < 50; draw++ {
				if got := backoff(c.base, c.max, a, rng); got < d/2 || got > d {
					t.Fatalf("%s attempt %d: backoff %v outside [%v, %v]", c.caller, a, got, d/2, d)
				}
			}
		}
	}
}
