package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueueBackoffRetryTransient: an executor failure wrapped in
// ErrTransient is retried after a backoff instead of failing the job.
func TestQueueBackoffRetryTransient(t *testing.T) {
	var calls atomic.Int32
	retriesBefore := counter("queue.retries")
	q := NewQueue(QueueOptions{
		Workers:     1,
		MaxAttempts: 3,
		retryBase:   2 * time.Millisecond,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("%w: simulated flaky environment", ErrTransient)
			}
			return &JobResult{Coverage: 1}, nil
		},
	})
	q.Start()
	j, err := q.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, j.ID, JobCompleted)
	if got.Attempts != 2 {
		t.Fatalf("completed after %d attempts, want 2", got.Attempts)
	}
	if d := counter("queue.retries") - retriesBefore; d != 1 {
		t.Fatalf("queue.retries advanced by %d, want 1", d)
	}
	_ = q.Drain(context.Background())
}

// TestQueueTransientBudgetExhausted: a persistently transient job fails
// terminally once the attempt budget is spent, with a telltale error.
func TestQueueTransientBudgetExhausted(t *testing.T) {
	q := NewQueue(QueueOptions{
		Workers:     1,
		MaxAttempts: 2,
		retryBase:   2 * time.Millisecond,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			return nil, fmt.Errorf("%w: still flaky", ErrTransient)
		},
	})
	q.Start()
	j, _ := q.Submit(specN(1))
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := q.Get(j.ID)
		if got.State == JobFailed {
			if got.Attempts != 2 || !strings.Contains(got.Error, "retries exhausted") {
				t.Fatalf("failed job: attempts=%d error=%q", got.Attempts, got.Error)
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

// TestQueueJobDeadline: a job's deadline — the queue-wide JobTimeout,
// unless the spec's DeadlineSec is tighter — cancels the executor's
// context and fails the job terminally: rerunning a timed-out spec
// would only time out again. Each case's looser bound is 30 s, past
// the test's 10 s wait, so a job that fails in time ran under the
// tighter one, and the context's deadline is no later than it.
func TestQueueJobDeadline(t *testing.T) {
	const tight = 20 * time.Millisecond
	for _, tc := range []struct {
		name        string
		jobTimeout  time.Duration
		deadlineSec float64
	}{
		{"spec deadline alone", 0, tight.Seconds()},
		{"queue bound alone", tight, 0},
		{"tighter spec deadline wins", 30 * time.Second, tight.Seconds()},
		{"looser spec deadline does not extend the queue bound", tight, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ddlBefore := counter("queue.deadline_exceeded")
			var left atomic.Int64 // the executor's time to its deadline, as it starts
			q := NewQueue(QueueOptions{
				Workers:    1,
				JobTimeout: tc.jobTimeout,
				Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
					if dl, ok := ctx.Deadline(); ok {
						left.Store(int64(time.Until(dl)))
					}
					<-ctx.Done()
					return nil, fmt.Errorf("%w: context closed", ErrInterrupted)
				},
			})
			q.Start()
			defer func() {
				// A job that outlives the test's wait is cancelled here.
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				_ = q.Drain(ctx)
			}()
			left.Store(int64(time.Hour)) // stays so if the executor has no deadline
			spec := specN(1)
			spec.DeadlineSec = tc.deadlineSec
			j, err := q.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := waitState(t, q, j.ID, JobFailed)
			if !strings.Contains(got.Error, "deadline exceeded") {
				t.Fatalf("error %q, want deadline exceeded", got.Error)
			}
			if got.Attempts != 1 {
				t.Fatalf("deadline-failed job used %d attempts, want 1 (no retry)", got.Attempts)
			}
			if d := time.Duration(left.Load()); d > tight {
				t.Fatalf("executor started %v before its deadline, want at most %v", d, tight)
			}
			if d := counter("queue.deadline_exceeded") - ddlBefore; d != 1 {
				t.Fatalf("queue.deadline_exceeded advanced by %d, want 1", d)
			}
		})
	}
}

// TestQueueBreakerTrips: enough consecutive terminal failures open the
// circuit breaker; workers pause for the cooldown and then resume, so a
// healthy job submitted after the trip still completes.
func TestQueueBreakerTrips(t *testing.T) {
	tripsBefore := counter("queue.breaker_trips")
	q := NewQueue(QueueOptions{
		Workers:          1,
		MaxAttempts:      1,
		breakerThreshold: 2,
		breakerCooldown:  60 * time.Millisecond,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			if spec.Vectors.Count < 100 {
				return nil, fmt.Errorf("engine: permanent failure %d", spec.Vectors.Count)
			}
			return &JobResult{Coverage: 1}, nil
		},
	})
	q.Start()
	bad1, _ := q.Submit(specN(1))
	bad2, _ := q.Submit(specN(2))
	deadline := time.Now().Add(10 * time.Second)
	for {
		j1, _ := q.Get(bad1.ID)
		j2, _ := q.Get(bad2.ID)
		if j1.State == JobFailed && j2.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bad jobs stuck in %s/%s", j1.State, j2.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d := counter("queue.breaker_trips") - tripsBefore; d != 1 {
		t.Fatalf("queue.breaker_trips advanced by %d, want 1", d)
	}
	// The breaker is open now; a healthy job must still complete once
	// the cooldown elapses.
	start := time.Now()
	good, _ := q.Submit(specN(500))
	waitState(t, q, good.ID, JobCompleted)
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("healthy job ran before the breaker cooldown elapsed")
	}
	_ = q.Drain(context.Background())
}

// TestQueueWatchdogCancelsStuck: a running job that stops publishing
// progress is cancelled by the watchdog and retried; the retry
// completes the job.
func TestQueueWatchdogCancelsStuck(t *testing.T) {
	var calls atomic.Int32
	wdBefore := counter("queue.watchdog_trips")
	q := NewQueue(QueueOptions{
		Workers:      1,
		MaxAttempts:  2,
		retryBase:    2 * time.Millisecond,
		StuckTimeout: 25 * time.Millisecond,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			if calls.Add(1) == 1 {
				// Simulate a wedged campaign: no progress, no return until
				// the watchdog pulls the context.
				<-ctx.Done()
				return nil, fmt.Errorf("%w: context closed", ErrInterrupted)
			}
			return &JobResult{Coverage: 1}, nil
		},
	})
	q.Start()
	j, err := q.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, j.ID, JobCompleted)
	if got.Attempts != 2 {
		t.Fatalf("completed after %d attempts, want 2 (watchdog retry)", got.Attempts)
	}
	if d := counter("queue.watchdog_trips") - wdBefore; d != 1 {
		t.Fatalf("queue.watchdog_trips advanced by %d, want 1", d)
	}
	_ = q.Drain(context.Background())
}

// TestQueueChaosCancelRetried: the queue.job.cancel chaos point yanks a
// job's context; the queue classifies it as retryable and the retry
// completes.
func TestQueueChaosCancelRetried(t *testing.T) {
	armChaos(t, "queue.job.cancel=cancel:delay=0s:times=1", 11)
	q := NewQueue(QueueOptions{
		Workers:     1,
		MaxAttempts: 2,
		retryBase:   2 * time.Millisecond,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("%w: context closed", ErrInterrupted)
			}
			return &JobResult{Coverage: 1}, nil
		},
	})
	q.Start()
	j, err := q.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, j.ID, JobCompleted)
	if got.Attempts != 2 {
		t.Fatalf("completed after %d attempts, want 2 (chaos cancel retry)", got.Attempts)
	}
	_ = q.Drain(context.Background())
}
