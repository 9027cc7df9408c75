package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// instantExec finishes every job at once with a result that names the
// job's spec, so a recovered result can be matched to its submit.
func instantExec(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
	return &JobResult{Cycles: spec.Vectors.Count, Coverage: 1}, nil
}

// ackGates holds instant jobs back until their Submit has returned.
// Submit makes a job runnable before it appends the submit record, so a
// job that finishes inside that one fsync journals its finish ahead of
// its submit; a crash image taken in between holds a finish for a job
// nobody was told exists. That is a property of Submit, not of
// compaction; these tests are about finishes of acknowledged submits,
// so the executor waits for the acknowledgement. Jobs are keyed by
// their spec's vector count, 1..n.
type ackGates []chan struct{}

func newAckGates(n int) ackGates {
	g := make(ackGates, n+1)
	for i := range g {
		g[i] = make(chan struct{})
	}
	return g
}

func (g ackGates) exec(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
	<-g[spec.Vectors.Count]
	return instantExec(ctx, spec, update)
}

// submit submits job n and opens its gate once the submit is acknowledged.
func (g ackGates) submit(t testing.TB, q *Queue, n int) Job {
	t.Helper()
	job, err := q.Submit(specN(n))
	if err != nil {
		t.Fatal(err)
	}
	close(g[n])
	return job
}

// copyState reads a live state directory the way a crash image would be
// read by the next process: the log first, then its .prev. In that
// order a compaction that lands between the two reads leaves a .prev
// at least as new as the log copied before it. A missing file is
// copied as missing. It returns an error rather than failing the test
// because compaction hooks call it off the test's goroutine.
func copyState(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"journal.wal", "journal.wal.prev"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// tearRun cuts the log at path in the middle of its snapshot run.
func tearRun(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	img, err := parseLog(data)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data[:img.run/2], 0o644)
}

// recoverCopy restarts a queue on a copied state directory.
func recoverCopy(t testing.TB, dir string) *Queue {
	t.Helper()
	j, recs, err := OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	q := NewQueue(QueueOptions{Exec: instantExec, Events: NewJobEventBroker()})
	if err := q.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	return q
}

// waitFinishAppends blocks until n more finish records than base have
// been appended and flushed: the counter moves inside Append's critical
// section, and growth queues behind the append that moved it last.
func waitFinishAppends(t testing.TB, j *Journal, base int64, n int) {
	t.Helper()
	finishes := famJournalRecords.Counter(recFinish)
	deadline := time.Now().Add(30 * time.Second)
	for finishes.Load()-base < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d finish records appended", finishes.Load()-base, n)
		}
		time.Sleep(time.Millisecond)
	}
	j.growth()
}

// TestConcurrentCheckpointKeepsEveryFinish: Checkpoint() entered from
// several goroutines at once must never leave an older snapshot on disk
// beside a journal already truncated for a newer one. A crash image
// taken whenever every finish so far has been acknowledged — no drain —
// has to recover every one of those jobs completed with its result.
func TestConcurrentCheckpointKeepsEveryFinish(t *testing.T) {
	// Without the mutex an image loses a finish about one time in six,
	// so one round of twenty all but always shows it. A round is ~400
	// fsyncs, which is what this test costs.
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for r := 0; r < rounds && !t.Failed(); r++ {
		concurrentCheckpointRound(t, 20, 10)
	}
}

// concurrentCheckpointRound pushes batches of perBatch jobs through a
// four-worker queue while two goroutines call Checkpoint() in a loop,
// and takes a crash image at the end of every batch.
func concurrentCheckpointRound(t *testing.T, batches, perBatch int) {
	dir := t.TempDir()
	j, _, err := OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	jobs := batches * perBatch
	gates := newAckGates(jobs)
	q := NewQueue(QueueOptions{Workers: 4, MaxPending: jobs, Exec: gates.exec,
		Journal: j, Events: NewJobEventBroker()})
	q.Start()
	base := famJournalRecords.Counter(recFinish).Load()

	stop := make(chan struct{})
	var loops sync.WaitGroup
	for i := 0; i < 2; i++ {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := q.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ids := make([]string, jobs+1)
	images := make([]string, batches)
	for b := range images {
		for n := b*perBatch + 1; n <= (b+1)*perBatch; n++ {
			ids[n] = gates.submit(t, q, n).ID
		}
		waitFinishAppends(t, j, base, (b+1)*perBatch)
		images[b] = filepath.Join(dir, fmt.Sprintf("image-%d", b))
		if err := copyState(dir, images[b]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	loops.Wait()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for b, image := range images {
		got := recoverCopy(t, image)
		lost := 0
		for n := 1; n <= (b+1)*perBatch; n++ {
			job, ok := got.Get(ids[n])
			if !ok || job.State != JobCompleted || job.Result == nil || job.Result.Cycles != n {
				lost++
				t.Logf("%s recovered as %+v", ids[n], job)
			}
		}
		if lost > 0 {
			t.Errorf("crash image after %d jobs lost %d acknowledged finishes", (b+1)*perBatch, lost)
		}
	}
}

// crashImage is a copy of the state directory taken at one compaction
// step, with what had been acknowledged when the copy began.
type crashImage struct {
	step     string
	dir      string
	acked    int              // jobs 1..acked had their Submit return
	finished []string         // jobs whose synced finish append had returned
	seqs     map[string]int64 // last SSE sequence number published per job
}

// TestCompactionCrashSteps takes a crash image after every step of
// every compaction while two workers keep finishing jobs, and one more
// where the renamed temp file is torn mid-run (its data lost though
// the rename landed), recovers each image, and holds it to the
// durability contract: no acknowledged
// submit missing, every acknowledged finish terminal with the result
// the live queue served, no terminal job with any other result, the ID
// counter and the SSE numbering never behind what had been handed out.
func TestCompactionCrashSteps(t *testing.T) {
	const jobs = 240
	dir := t.TempDir()
	j, _, err := OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	events := NewJobEventBroker()
	gates := newAckGates(jobs)

	var mu sync.Mutex // guards acked, finished; images is only touched single-flight
	var acked int
	var finished []string
	var images []crashImage
	hook := func(step, id string) {
		if step == stepFinish {
			mu.Lock()
			finished = append(finished, id)
			mu.Unlock()
			return
		}
		mu.Lock()
		img := crashImage{step: step, dir: filepath.Join(dir, fmt.Sprintf("image-%03d-%s", len(images), step)),
			acked: acked, finished: append([]string(nil), finished...), seqs: events.Seqs()}
		mu.Unlock()
		if err := copyState(dir, img.dir); err != nil {
			t.Error(err)
		}
		images = append(images, img)
		if step == stepRenamed {
			torn := img
			torn.step, torn.dir = "torn", img.dir+"-torn"
			if err := copyState(img.dir, torn.dir); err != nil {
				t.Error(err)
			}
			if err := tearRun(filepath.Join(torn.dir, "journal.wal")); err != nil {
				t.Error(err)
			}
			images = append(images, torn)
		}
	}
	q := NewQueue(QueueOptions{Workers: 2, MaxPending: jobs, Journal: j, Events: events,
		compactFloor: 8 << 10, compactHook: hook,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			res, err := gates.exec(ctx, spec, update)
			if spec.Vectors.Count%50 == 0 {
				return nil, errors.New("planted failure")
			}
			return res, err
		}})
	q.Start()
	for n := 1; n <= jobs; n++ {
		job, err := q.Submit(specN(n))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("job-%04d", n); job.ID != want {
			t.Fatalf("submit %d minted %s, want %s", n, job.ID, want)
		}
		mu.Lock()
		acked = n
		mu.Unlock()
		close(gates[n])
		if n == jobs {
			// Every earlier job has at least started; Drain lets those finish.
			waitState(t, q, job.ID, JobCompleted)
		}
	}
	// Drain joins the workers and the compactor, then compacts once more
	// on this goroutine: every image is in before the checks start.
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	compactions := 0
	for _, img := range images {
		if img.step == stepRenamed {
			compactions++
		}
	}
	if compactions < 3 {
		t.Fatalf("%d compactions in %d images; the floor was meant to force several", compactions, len(images))
	}

	// What the live queue served is the reference for every image.
	type outcome struct {
		state  JobState
		result string
		errMsg string
	}
	outcomeOf := func(job Job) outcome {
		res, err := json.Marshal(job.Result)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{job.State, string(res), job.Error}
	}
	live := make(map[string]outcome, jobs)
	for _, job := range q.Jobs() {
		if job.State != JobCompleted && job.State != JobFailed {
			t.Fatalf("%s drained in state %s", job.ID, job.State)
		}
		live[job.ID] = outcomeOf(job)
	}

	// lastNextID is the ID counter of the image before. A torn image is
	// the other outcome of its renamed sibling's step, so it is held to
	// the image before that one, and the chain goes on from the sibling:
	// its snapshot can count a job minted, but not yet journaled or
	// acknowledged, that the salvaged .prev does not hold.
	lastNextID, beforeRename := 0, 0
	for _, img := range images {
		got := recoverCopy(t, img.dir)
		recovered := make(map[string]Job, jobs)
		for _, job := range got.Jobs() {
			recovered[job.ID] = job
			if job.State == JobCompleted || job.State == JobFailed {
				if o := outcomeOf(job); o != live[job.ID] {
					t.Errorf("%s: %s recovered as %+v, live queue served %+v", img.dir, job.ID, o, live[job.ID])
				}
			}
		}
		for n := 1; n <= img.acked; n++ {
			if _, ok := recovered[fmt.Sprintf("job-%04d", n)]; !ok {
				t.Errorf("%s: acknowledged submit job-%04d missing", img.dir, n)
			}
		}
		for _, id := range img.finished {
			if s := recovered[id].State; s != JobCompleted && s != JobFailed {
				t.Errorf("%s: %s had its finish acknowledged, recovered %q", img.dir, id, s)
			}
		}
		got.mu.Lock()
		nextID := got.nextID
		got.mu.Unlock()
		before := lastNextID
		switch img.step {
		case "torn":
			before = beforeRename
		case stepRenamed:
			beforeRename = lastNextID
		}
		if nextID < img.acked || nextID < before {
			t.Errorf("%s: next_id %d after %d acknowledged submits and %d in the image before", img.dir, nextID, img.acked, before)
		}
		if img.step != "torn" {
			lastNextID = nextID
		}
		// A job publishes its first event before its submit is journaled;
		// only an acknowledged job has followers to keep numbering for.
		seqs := got.opts.Events.Seqs()
		for n := 1; n <= img.acked; n++ {
			id := fmt.Sprintf("job-%04d", n)
			if seqs[id] < img.seqs[id] {
				t.Errorf("%s: %s resumes SSE numbering at %d, %d was already published", img.dir, id, seqs[id], img.seqs[id])
			}
		}
	}
}

// TestRecoverJournalOnlyTornTail is the crash the byte-triggered cadence
// makes the common one: no checkpoint has been written yet, the journal
// is everything, and the kill lands anywhere inside its last three
// frames. Whatever the cut, recovery equals a replay of the whole
// frames before it.
func TestRecoverJournalOnlyTornTail(t *testing.T) {
	const jobs = 4
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	gates := newAckGates(jobs)
	q := NewQueue(QueueOptions{Workers: 1, Journal: j, Exec: gates.exec})
	q.Start()
	base := famJournalRecords.Counter(recFinish).Load()
	for n := 1; n <= jobs; n++ {
		// One job at a time, its finish record in before the next submit,
		// so each job owns three consecutive frames: submit and start in
		// either order (a worker can journal the start before Submit has
		// journaled the submit), then finish.
		gates.submit(t, q, n)
		waitFinishAppends(t, j, base, n)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := decodeJournal(data); len(recs) == 0 || recs[0] != (JournalRecord{T: recSnapshot}) {
		t.Fatalf("a %d-byte journal was compacted; this test wants journal-only state", len(data))
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	j.Close()

	recs, good := decodeJournal(data)
	if good != int64(len(data)) || len(recs) != 1+3*jobs {
		t.Fatalf("journal decodes %d records over %d of %d bytes, want an empty snapshot run and %d records", len(recs), good, len(data), 3*jobs)
	}
	// ends[k] is where frame k ends; the last job owns the last three
	// frames.
	ends := make([]int, len(recs))
	off := 0
	for k := range recs {
		frame, err := encodeFrame(&recs[k])
		if err != nil {
			t.Fatal(err)
		}
		off += len(frame)
		ends[k] = off
	}
	if off != len(data) {
		t.Fatalf("re-encoded frames span %d bytes, journal holds %d", off, len(data))
	}
	last := fmt.Sprintf("job-%04d", jobs)
	whole := len(recs) - 3
	submitAt := whole // index of the last job's submit frame
	if recs[submitAt].T != recSubmit {
		submitAt++
	}
	if recs[submitAt].T != recSubmit || recs[len(recs)-1].T != recFinish {
		t.Fatalf("last three frames are %s, %s, %s", recs[whole].T, recs[whole+1].T, recs[whole+2].T)
	}
	for cut := ends[whole-1]; cut <= len(data); cut++ {
		for whole < len(recs) && ends[whole] <= cut {
			whole++
		}
		// OpenJournal's own handling of a torn file is TestJournalTornTail's;
		// this is about what Recover makes of the records that survive.
		cutRecs, _ := decodeJournal(data[:cut])
		q := NewQueue(QueueOptions{Exec: instantExec})
		if err := q.Recover(filepath.Join(dir, "absent", "ckpt.json"), cutRecs); err != nil {
			t.Fatal(err)
		}
		got := q.Jobs()
		if want := recoverInto(t, recs[:whole]); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d of %d: recovered %+v, replay of %d whole frames gives %+v", cut, len(data), got, whole, want)
		}
		state := JobState("")
		for _, job := range got {
			if job.ID == last {
				state = job.State
			} else if job.State != JobCompleted || job.Result == nil {
				t.Fatalf("cut at %d: %s, finished frames earlier, recovered as %+v", cut, job.ID, job)
			}
		}
		// Absent until its submit frame is whole, finished once the last
		// frame is, queued in between.
		want := JobQueued
		switch {
		case whole <= submitAt:
			want = ""
		case whole == len(recs):
			want = JobCompleted
		}
		if state != want {
			t.Fatalf("cut at %d (%d whole frames): %s recovered %q, want %q", cut, whole, last, state, want)
		}
	}
}

// TestFinishPathIsCheckpointFree pins the cadence by counting writes,
// not by timing them: a journaled queue's finishes write no snapshot
// until Drain; a queue without a journal writes none at all; a failed
// journal makes every finish compact; and what makes the compactor
// write is journal bytes, not the number of jobs.
func TestFinishPathIsCheckpointFree(t *testing.T) {
	type wiring struct {
		jobs    int
		journal bool
		floor   int64
		traceID string // padding: journal bytes per job without changing the job count
		broken  bool   // the journal's file is closed underneath it before the first job
	}
	// compaction is the journal growth one compaction saw and the
	// trigger it had to reach.
	type compaction struct{ mark, due int64 }
	// tally is what a run wrote: snapshots before Drain and in total, and
	// every compaction in order (Drain's last).
	type tally struct {
		writesBefore, writes int64
		seen                 []compaction
	}
	run := func(t *testing.T, w wiring) (got tally) {
		dir := t.TempDir()
		opts := QueueOptions{Workers: 2, MaxPending: w.jobs, Exec: instantExec, compactFloor: w.floor}
		var q *Queue
		if w.journal {
			j, _, err := OpenJournal(filepath.Join(dir, "journal.wal"))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if w.broken {
				j.f.Close()
			}
			opts.Journal = j
			opts.compactHook = func(step, _ string) {
				if step == stepMark {
					// Read inside the compaction, before it installs its own
					// snapshot run. The growth read here can be a record or
					// two past the mark the compaction took; a compaction per
					// job would be short of the trigger by far more.
					tail, run := j.growth()
					got.seen = append(got.seen, compaction{tail, max(q.opts.compactFloor, run)})
				}
			}
		}
		q = NewQueue(opts)
		q.Start()
		writes0 := ctrCheckpointWrites.Load()
		for n := 1; n <= w.jobs; n++ {
			spec := specN(n)
			spec.TraceID = w.traceID
			job, err := q.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if n == w.jobs {
				// Every earlier job has at least started; Drain lets those finish.
				waitState(t, q, job.ID, JobCompleted)
			}
		}
		// A nudged compactor that is not due takes no lock and writes
		// nothing, so the counters are final for the jobs seen so far;
		// one that is due may still be writing — Drain joins it.
		got.writesBefore = ctrCheckpointWrites.Load() - writes0
		if err := q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if done := q.Counts()[JobCompleted]; done != w.jobs {
			t.Fatalf("%d of %d jobs completed: %v", done, w.jobs, q.Counts())
		}
		got.writes = ctrCheckpointWrites.Load() - writes0
		return got
	}

	t.Run("journaled", func(t *testing.T) {
		const jobs = 300
		got := run(t, wiring{jobs: jobs, journal: true})
		if got.writesBefore != 0 {
			t.Errorf("%d jobs cost %d snapshot writes before Drain, want none", jobs, got.writesBefore)
		}
		if got.writes != 1 {
			t.Errorf("Drain made it %d snapshot writes, want exactly one", got.writes)
		}
	})
	t.Run("no journal", func(t *testing.T) {
		const jobs = 300
		if got := run(t, wiring{jobs: jobs}); got.writes != 0 {
			t.Errorf("%d snapshot writes for %d finishes and a drain of an in-memory queue, want none", got.writes, jobs)
		}
	})
	t.Run("journal failed", func(t *testing.T) {
		// Every append fails, so no finish is in the journal and each
		// falls back to a compaction of its own.
		const jobs = 20
		if got := run(t, wiring{jobs: jobs, journal: true, broken: true}); got.writes != jobs+1 {
			t.Errorf("%d snapshot writes for %d unjournaled finishes and a drain, want one each", got.writes, jobs)
		}
	})
	t.Run("triggered by bytes", func(t *testing.T) {
		const jobs, floor = 150, 32 << 10
		lean := run(t, wiring{jobs: jobs, journal: true, floor: floor})
		fat := run(t, wiring{jobs: jobs, journal: true, floor: floor, traceID: strings.Repeat("f", 16<<10)})
		for _, got := range []tally{lean, fat} {
			// The last one is Drain's, which does not wait to be due.
			for _, c := range got.seen[:len(got.seen)-1] {
				if c.mark < c.due {
					t.Errorf("compacted at %d journal bytes, before the %d-byte trigger", c.mark, c.due)
				}
			}
		}
		if lean.writes < 2 || lean.writes > jobs/20 {
			t.Errorf("%d snapshot writes for %d lean jobs over a %d-byte floor", lean.writes, jobs, floor)
		}
		if fat.writes <= lean.writes {
			t.Errorf("%d jobs wrote %d snapshots lean and %d with 16 KiB more journal each; want more for more bytes", jobs, lean.writes, fat.writes)
		}
	})
}

// TestStateCountsMatchRecount: the per-state counters behind Counts()
// and the sbst_queue_jobs gauges are adjusted at every transition
// instead of recounted; after each kind of transition — completions, a
// failure, a retry that requeues, a forced drain, a recovery from the
// journal, the recovered jobs' own runs — they equal a recount.
func TestStateCountsMatchRecount(t *testing.T) {
	check := func(q *Queue, when string, want map[JobState]int) {
		t.Helper()
		recount := map[JobState]int{}
		for _, job := range q.Jobs() {
			recount[job.State]++
		}
		if got := q.Counts(); !reflect.DeepEqual(got, recount) {
			t.Errorf("%s: Counts() %v, recount %v", when, got, recount)
		}
		if !reflect.DeepEqual(recount, want) {
			t.Errorf("%s: recount %v, want %v", when, recount, want)
		}
		for state, g := range queueGauges {
			if int(g.Load()) != recount[state] {
				t.Errorf("%s: sbst_queue_jobs{state=%q} %v, recount %d", when, state, g.Load(), recount[state])
			}
		}
	}

	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var flaked atomic.Bool
	hold := make(chan struct{})
	exec := func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		switch spec.Vectors.Count {
		case 3:
			return nil, errors.New("planted failure")
		case 4:
			if !flaked.Swap(true) {
				return nil, fmt.Errorf("first attempt: %w", ErrTransient)
			}
		case 6:
			select {
			case <-hold:
			case <-ctx.Done():
				return nil, ErrInterrupted
			}
		}
		return instantExec(ctx, spec, update)
	}
	q := NewQueue(QueueOptions{Workers: 1, Journal: j, Exec: exec, retryBase: time.Millisecond})
	q.Start()
	var ids []string
	for n := 1; n <= 7; n++ {
		job, err := q.Submit(specN(n))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	// One worker: job 6 holds it, job 7 waits behind, and job 4's retry
	// either ran before job 6 or waits behind it too.
	waitState(t, q, ids[5], JobRunning)
	for _, n := range []int{1, 2, 5} {
		waitState(t, q, ids[n-1], JobCompleted)
	}
	waitState(t, q, ids[2], JobFailed)
	if job, _ := q.Get(ids[3]); job.State == JobCompleted {
		check(q, "job 6 held", map[JobState]int{JobCompleted: 4, JobFailed: 1, JobRunning: 1, JobQueued: 1})
	} else {
		check(q, "job 6 held", map[JobState]int{JobCompleted: 3, JobFailed: 1, JobRunning: 1, JobQueued: 2})
	}

	// A drain whose deadline has passed cancels job 6 back to queued.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Drain(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced drain returned %v", err)
	}
	done := q.Counts()[JobCompleted]
	check(q, "forced drain", map[JobState]int{JobCompleted: done, JobFailed: 1, JobQueued: 6 - done})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	close(hold)
	q2 := NewQueue(QueueOptions{Workers: 2, Journal: j2, Exec: exec})
	if err := q2.Recover("", recs); err != nil {
		t.Fatal(err)
	}
	check(q2, "recovered", map[JobState]int{JobCompleted: done, JobFailed: 1, JobQueued: 6 - done})
	q2.Start()
	for _, n := range []int{4, 6, 7} {
		waitState(t, q2, ids[n-1], JobCompleted)
	}
	if err := q2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	check(q2, "recovered jobs ran", map[JobState]int{JobCompleted: 6, JobFailed: 1})
}

// TestJournalOnlyQueueCompacts: a journaled queue with no checkpoint
// path must still compact. Its log then stays bounded by its snapshot
// plus max(floor, snapshot) of newer records, and, after Drain, is the
// snapshot run alone.
func TestJournalOnlyQueueCompacts(t *testing.T) {
	const jobs = 200
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	q := NewQueue(QueueOptions{Workers: 2, MaxPending: jobs, Journal: j, Exec: instantExec, compactFloor: 8 << 10})
	q.Start()
	writes0 := ctrCheckpointWrites.Load()
	for n := 1; n <= jobs; n++ {
		job, err := q.Submit(specN(n))
		if err != nil {
			t.Fatal(err)
		}
		if n == jobs {
			waitState(t, q, job.ID, JobCompleted)
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w := ctrCheckpointWrites.Load() - writes0; w < 2 {
		t.Errorf("%d jobs over an 8 KiB floor compacted %d times with Drain's, want the compactor's too", jobs, w)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, good := decodeJournal(data)
	if len(recs) == 0 || recs[0].T != "snapshot" {
		t.Fatalf("drained log of %d bytes does not open with a snapshot run", len(data))
	}
	if good != int64(len(data)) || len(recs) != 1+jobs {
		t.Errorf("drained log holds %d frames over %d of %d bytes, want the head and %d job frames", len(recs), good, len(data), jobs)
	}
}
