package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bist"
	"repro/internal/chaos"
	"repro/internal/fault"
)

// TestChaosCampaignEndToEnd is the acceptance run for the whole
// robustness stack. One armed chaos config injects, into a single
// queued campaign:
//
//   - a stalled executor (engine.exec delay ≫ StuckTimeout) → the
//     watchdog cancels it and the queue retries with backoff,
//   - a shard panic (engine.shard) → the shard supervisor recovers and
//     retries the shard,
//   - 50 corrupted compiled-kernel batch words (logic.eventsim.diff) →
//     the full-sample shadow check detects the divergence and falls
//     back to the reference kernel,
//   - a torn compaction (engine.checkpoint.write shortwrite on the
//     drain-time compaction of the queue's journal) → recovery
//     salvages the previous generation.
//
// Despite all of it the campaign completes with DetectedAt and
// Coverage bit-identical to the clean reference oracle, and every
// guardrail's counter has advanced.
func TestChaosCampaignEndToEnd(t *testing.T) {
	core, faults := testCore(t)
	if len(faults) > 400 {
		faults = faults[:400]
	}
	vecs := bist.PseudorandomVectors(200, 1)
	want := referenceResult(t, faults, vecs)

	seed := int64(42)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	spec := "engine.exec=delay:delay=4s:times=1," +
		"engine.shard=panic:times=1," +
		"logic.eventsim.diff=corrupt:times=50," +
		"engine.checkpoint.write=shortwrite:times=1"
	armChaos(t, spec, seed)

	before := map[string]int64{}
	for _, name := range []string{"chaos.injected", "kernel.divergence", "queue.retries",
		"engine.shard_retries", "queue.watchdog_trips", "queue.checkpoint_salvaged"} {
		before[name] = counter(name)
	}

	var mu sync.Mutex
	var captured *fault.Result
	exec := func(ctx context.Context, jspec JobSpec, update func(Progress)) (*JobResult, error) {
		if f := chaos.Maybe("engine.exec"); f != nil {
			f.PanicNow()
			f.Sleep(ctx)
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: context closed before simulation", ErrInterrupted)
		}
		res, err := Simulate(core.Netlist, vecs, SimOptions{
			SimOptions: fault.SimOptions{Faults: faults, Ctx: ctx,
				// Short pinned segments make the watchdog heartbeat (the
				// progress callback, wired exactly as the real executor
				// does) tick well inside StuckTimeout even under -race.
				SegmentLen: 32,
				Progress: func(cycles, detected, remaining int) {
					update(Progress{Done: cycles, Total: vecs.Len(),
						Detected: detected, Remaining: remaining})
				},
			},
			Workers:      2,
			ShadowSample: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTransient, err)
		}
		if res.Interrupted {
			return nil, fmt.Errorf("%w: interrupted mid-campaign", ErrInterrupted)
		}
		mu.Lock()
		captured = res
		mu.Unlock()
		return &JobResult{
			Faults: len(res.Faults), Detected: res.Detected(),
			Cycles: res.Cycles, Coverage: res.Coverage(),
		}, nil
	}

	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueOptions{
		Workers:      1,
		MaxAttempts:  4,
		retryBase:    2 * time.Millisecond,
		StuckTimeout: time.Second,
		Journal:      j,
		Exec:         exec,
	})
	q.Start()
	job, err := q.Submit(specN(10))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, job.ID, JobCompleted)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Correctness despite chaos: the merged result is bit-identical to
	// the clean serial reference oracle.
	mu.Lock()
	res := captured
	mu.Unlock()
	if res == nil {
		t.Fatal("no result captured")
	}
	if !reflect.DeepEqual(res.DetectedAt, want.DetectedAt) {
		t.Fatal("campaign DetectedAt diverges from the clean reference oracle")
	}
	if got.Result == nil || got.Result.Coverage != want.Coverage() {
		t.Fatalf("job coverage %+v, want %v", got.Result, want.Coverage())
	}

	// Every guardrail fired and was counted.
	delta := func(name string) int64 { return counter(name) - before[name] }
	if d := delta("chaos.injected"); d != 53 {
		// 1 exec delay + 1 shard panic + 50 corrupt words + 1 torn write.
		t.Errorf("chaos.injected advanced by %d, want 53", d)
	}
	if delta("kernel.divergence") < 1 {
		t.Error("kernel.divergence never advanced: shadow check missed the corruption")
	}
	if delta("queue.retries") < 1 {
		t.Error("queue.retries never advanced: stuck executor was not retried")
	}
	if delta("engine.shard_retries") < 1 {
		t.Error("engine.shard_retries never advanced: shard panic was not recovered")
	}
	if delta("queue.watchdog_trips") < 1 {
		t.Error("queue.watchdog_trips never advanced: stall was not detected")
	}

	// The drain-time compaction was torn; recovery salvages the clean
	// previous generation and the completed result survives.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	jobs, err := recoverLog(path)
	if err != nil {
		t.Fatalf("recovery after a torn final compaction: %v", err)
	}
	if d := delta("queue.checkpoint_salvaged"); d != 1 {
		t.Errorf("queue.checkpoint_salvaged advanced by %d, want 1", d)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID || jobs[0].State != JobCompleted ||
		jobs[0].Result == nil || jobs[0].Result.Coverage != want.Coverage() {
		t.Fatalf("salvaged jobs %+v do not carry the completed result", jobs)
	}
}
