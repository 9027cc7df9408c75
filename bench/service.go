package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/selftest"
	"repro/internal/worker"
)

// coordinator is sbstd wired up in-process the way cmd/sbstd wires it:
// journal, queue, checkpoint, event broker and the /v1 server, behind a
// real loopback TCP listener. With fleet set it runs as a coordinator
// (lease pool, distributed executor) with two in-process workers over
// the same HTTP surface; without, jobs run on the local executor.
type coordinator struct {
	e          *env
	dir        string
	journal    *engine.Journal
	checkpoint string
	q          *engine.Queue
	pool       *engine.LeasePool
	srv        *httptest.Server
	wire       *wire // nil unless traced

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup

	mu     sync.Mutex
	merged map[string]*fault.Result // job ID → what the fleet merged
}

func startCoordinator(e *env, fleet bool) *coordinator {
	dir, err := os.MkdirTemp(e.outDir, "state-"+e.w.name+"-")
	if err != nil {
		e.fatal(err)
	}
	c := &coordinator{e: e, dir: dir, checkpoint: filepath.Join(dir, "campaigns.json"), merged: map[string]*fault.Result{}}
	if e.traced() {
		c.wire = newWire(e.tr)
	}
	c.journal, _, err = engine.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		e.fatal(err)
	}
	events := engine.NewJobEventBroker()
	exec := engine.NewExecutor(engine.ExecConfig{Workers: 1})
	var distState func(string) *engine.DistState
	if fleet {
		c.pool = engine.NewLeasePool(engine.PoolOptions{Events: events, Journal: c.journal})
		exec = engine.NewDistExecutor(engine.ExecConfig{Workers: 1}, c.pool, engine.DistOptions{
			Units: 8,
			OnMerged: func(jobID string, res *fault.Result) {
				c.mu.Lock()
				c.merged[jobID] = res
				c.mu.Unlock()
			},
		})
		distState = c.pool.SnapshotJob
	}
	c.q = engine.NewQueue(engine.QueueOptions{
		Workers: 2, MaxPending: 64, Exec: exec, Checkpoint: c.checkpoint,
		DistState: distState, Events: events, Journal: c.journal,
	})
	c.q.Start()
	c.srv = httptest.NewServer(engine.NewServerWith(c.q, engine.ServerOptions{
		RequestTimeout: 15 * time.Second, MaxInflight: 128, Pool: c.pool, Events: events,
	}))
	if fleet {
		ctx, cancel := context.WithCancel(context.Background())
		c.stopWorkers = cancel
		for _, id := range []string{"w1", "w2"} {
			w := worker.New(worker.Options{
				Coordinator: c.srv.URL, ID: id, Poll: 5 * time.Millisecond,
				Exec: engine.ExecConfig{Workers: 1}, Client: c.client(id),
			})
			c.workers.Add(1)
			go func() {
				defer c.workers.Done()
				if err := w.Run(ctx); err != nil {
					fmt.Fprintf(os.Stderr, "bench: worker %s: %v\n", w.ID(), err)
				}
			}()
		}
	}
	return c
}

// client returns a /v1 client; on a traced run its exchanges go through
// the route round-tripper.
func (c *coordinator) client(who string) *client.Client {
	var opts client.Options
	if c.wire != nil {
		opts.HTTP = c.wire.client(who)
	}
	return client.New(c.srv.URL, opts)
}

// stop drains the queue and shuts everything down in the order sbstd
// does, leaving the state directory behind for the recovery rung.
func (c *coordinator) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.stopWorkers != nil {
		c.stopWorkers()
		c.workers.Wait()
	}
	c.srv.Close()
	if err := c.q.Drain(ctx); err != nil {
		c.e.check(false, "drain: %v", err)
	}
	if c.pool != nil {
		c.pool.Close()
	}
	if err := c.journal.Close(); err != nil {
		c.e.check(false, "journal close: %v", err)
	}
}

// discard stops the coordinator and removes its state directory.
func (c *coordinator) discard() {
	c.stop()
	os.RemoveAll(c.dir)
}

// jobTiming is one job as its client saw it.
type jobTiming struct {
	id        string
	spec      api.JobSpec
	sent      time.Time // SubmitJob called
	submitted time.Time // SubmitJob returned
	done      time.Time // Follow returned the terminal frame
	res       *api.JobResult
	err       error
}

func (j *jobTiming) latency() time.Duration { return j.done.Sub(j.sent) }

// roundTrip submits one job and follows its event stream to the
// terminal frame, the way `sbstd -evolve` does.
func (c *coordinator) roundTrip(cl *client.Client, spec api.JobSpec) *jobTiming {
	spec.TraceID = obs.NewTraceID()
	ctx := client.WithTraceID(context.Background(), spec.TraceID)
	j := &jobTiming{spec: spec, sent: time.Now()}
	root := c.e.tr.open("job", spec.TraceID, 0, j.sent)
	job, err := cl.SubmitJob(ctx, spec)
	j.submitted = time.Now()
	if err == nil {
		j.id = job.ID
		j.res, err = cl.Follow(ctx, job.ID, 0, func(api.JobEvent) {})
	}
	j.done, j.err = time.Now(), err
	c.e.tr.close(root, j.done, nil)
	return j
}

// scrapeArtifacts reads the artifact-cache counters off /v1/metrics.
func (c *coordinator) scrapeArtifacts() (hits, misses float64) {
	resp, err := http.Get(c.srv.URL + api.Prefix + "/metrics")
	if err != nil {
		c.e.fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(value, 64)
		switch name {
		case "sbst_artifact_hits_total":
			hits = v
		case "sbst_artifact_misses_total":
			misses = v
		}
	}
	return hits, misses
}

// oracle simulates a fault_sim spec serially in this process, with no
// artifact store, sharding or fleet involved.
func oracle(e *env, spec api.JobSpec) *fault.Result {
	d, err := engine.GetDesign(spec.Design)
	if err != nil {
		e.fatal(err)
	}
	vecs := bistVectors(d, spec.Vectors.Count, uint64(spec.Vectors.Seed))
	res, err := engine.Simulate(d.Netlist, vecs, engine.SimOptions{
		SimOptions: fault.SimOptions{Faults: d.Faults}, Workers: 1, NoArtifacts: true,
	})
	if err != nil {
		e.fatal(err)
	}
	return res
}

func headlineAgrees(e *env, j *jobTiming, want *fault.Result) bool {
	return e.check(j.res.Faults == len(want.DetectedAt) && j.res.Detected == want.Detected() && j.res.Cycles == want.Cycles,
		"job %s: served %d/%d over %d cycles, serial oracle says %d/%d over %d", j.id,
		j.res.Detected, j.res.Faults, j.res.Cycles, want.Detected(), len(want.DetectedAt), want.Cycles)
}

func latenciesMS(jobs []*jobTiming) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = ms(j.latency())
	}
	return out
}

// smallJobClients is the closed loop of service_small_jobs: each client
// sends its next job only after the previous one's terminal frame.
const smallJobClients = 2

// startWarm is the set-up of a service workload: build the design,
// start the coordinator (shutting down the one a previous set-up run
// started) and put one warm-up job through it.
func startWarm(e *env, c *coordinator, fleet bool, design string, warmUp api.JobSpec) *coordinator {
	if c != nil {
		c.discard()
	}
	buildDesign(e, design)
	c = startCoordinator(e, fleet)
	if j := c.roundTrip(c.client("warm-up"), warmUp); j.err != nil {
		e.fatal(j.err)
	}
	return c
}

func runServiceSmallJobs(e *env) {
	spec := func(k int) api.JobSpec {
		return api.JobSpec{Kind: api.JobFaultSim, Design: "bench/c432",
			Vectors: api.VectorSource{Kind: api.VecBIST, Count: 256, Seed: int64(e.derive(uint64(100 + k)))}}
	}
	var c *coordinator
	e.setup(5, func() { c = startWarm(e, c, false, "bench/c432", spec(0)) })

	start := time.Now()
	deadline := e.deadline(start)
	perClient := make([][]*jobTiming, smallJobClients)
	var wg sync.WaitGroup
	for i := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.client(fmt.Sprintf("client-%d", i))
			for k := 0; time.Now().Before(deadline); k++ {
				perClient[i] = append(perClient[i], c.roundTrip(cl, spec(1+i+smallJobClients*k)))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	// Jobs in completion order, so that "first quarter" and "last
	// quarter" mean the short and the long job history.
	var jobs []*jobTiming
	for _, own := range perClient {
		jobs = append(jobs, own...)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].done.Before(jobs[b].done) })
	for k, j := range jobs {
		ok := e.check(j.err == nil && j.res != nil, "job %d: %v", k, j.err)
		if ok && k%50 == 0 {
			ok = headlineAgrees(e, j, oracle(e, j.spec))
		}
		if ok && j.spec.Vectors.Seed == spec(1).Vectors.Seed {
			ok = e.stat("c432.first_job", fmt.Sprintf("%d/%d", j.res.Detected, j.res.Faults))
		}
		e.op(ok)
	}
	lat := latenciesMS(jobs)
	e.setN("op_p50_ms", median(lat), len(lat))
	e.setN("work_per_s", float64(len(jobs)-e.failed)/wall.Seconds(), len(jobs))
	e.set("service.jobs", float64(len(jobs)))
	if p, v, ok := tail(lat); ok {
		e.set("service.job_latency_tail_ms", v)
		e.set("service.tail_percentile", p)
	}
	quarter := len(lat) / 4
	if quarter > 0 {
		e.setN("service.latency_first_quarter_p50_ms", median(lat[:quarter]), quarter)
		e.setN("service.latency_last_quarter_p50_ms", median(lat[len(lat)-quarter:]), quarter)
	}

	if e.traced() {
		c.lifecycleMetrics(jobs)
		e.set("engine.checkpoint_write_ms", ms(e.tr.timed("engine.Queue.Checkpoint", "durability", 0, func() {
			e.check(c.q.Checkpoint() == nil, "checkpoint failed")
		})))
		if st, err := os.Stat(c.checkpoint); err == nil {
			e.set("engine.checkpoint_bytes", float64(st.Size()))
		}
	}
	c.stop()
	if e.traced() {
		journalRung(e, c.dir)
		e.set("engine.recover_ms", ms(e.tr.timed("engine.Recover", "durability", 0, func() { recoverState(e, c, len(jobs)+1) })))
	}
	os.RemoveAll(c.dir)
}

// lifecycleMetrics splits the jobs' latency into its stages, from the
// client's timestamps and the queue's own (one clock: one process).
func (c *coordinator) lifecycleMetrics(jobs []*jobTiming) {
	var submit, wait, exec, delivery []float64
	for _, j := range jobs {
		snap, ok := c.q.Get(j.id)
		if !ok || snap.Started == nil || snap.Finished == nil {
			continue
		}
		submit = append(submit, ms(j.submitted.Sub(j.sent)))
		wait = append(wait, ms(snap.Started.Sub(snap.Created)))
		exec = append(exec, ms(snap.Finished.Sub(*snap.Started)))
		delivery = append(delivery, ms(j.done.Sub(*snap.Finished)))
	}
	e := c.e
	e.setN("engine.submit_rtt_ms", median(submit), len(submit))
	e.setN("engine.queue_wait_ms", median(wait), len(wait))
	e.setN("engine.exec_ms", median(exec), len(exec))
	e.setN("engine.delivery_ms", median(delivery), len(delivery))
}

// journalRung prices one journal append, fsynced and group-committed,
// on a journal of its own in the run's state directory.
func journalRung(e *env, dir string) {
	j, _, err := engine.OpenJournal(filepath.Join(dir, "rung.wal"))
	if err != nil {
		e.fatal(err)
	}
	appendN := func(n int, sync bool) float64 {
		took := e.tr.timed(fmt.Sprintf("engine.Journal.Append/sync=%v", sync), "durability", 0, func() {
			for i := 0; i < n; i++ {
				rec := engine.JournalRecord{T: "progress", JobID: "rung", Progress: &api.Progress{Done: i, Total: n}}
				if err := j.Append(rec, sync); err != nil {
					e.fatal(err)
				}
			}
		})
		return float64(took.Microseconds()) / float64(n)
	}
	e.setN("engine.journal_append_sync_us", appendN(200, true), 200)
	e.setN("engine.journal_append_nosync_us", appendN(20000, false), 20000)
	if err := j.Close(); err != nil {
		e.fatal(err)
	}
}

// recoverState restarts a queue on the state a drained run left behind.
func recoverState(e *env, c *coordinator, wantJobs int) {
	journal, recs, err := engine.OpenJournal(c.journal.Path())
	if err != nil {
		e.fatal(err)
	}
	defer journal.Close()
	q := engine.NewQueue(engine.QueueOptions{
		Workers: 2, Exec: engine.NewExecutor(engine.ExecConfig{Workers: 1}), Checkpoint: c.checkpoint, Journal: journal,
	})
	if err := q.Recover(c.checkpoint, recs); err != nil {
		e.fatal(err)
	}
	e.check(len(q.Jobs()) == wantJobs, "recovered %d jobs, want %d", len(q.Jobs()), wantJobs)
}

// table1Spec is the Table-1-scale campaign as a /v1 job.
func table1Spec(seed uint64) api.JobSpec {
	return api.JobSpec{Kind: api.JobFaultSim, Design: "dsp",
		Vectors: api.VectorSource{Kind: api.VecBIST, Count: 8192, Seed: int64(seed)}}
}

func runFleetTable1(e *env) {
	var c *coordinator
	e.setup(1, func() { c = startWarm(e, c, true, "dsp", table1Spec(e.derive(99))) })
	cl := c.client("client")
	hits0, misses0 := c.scrapeArtifacts()

	start := time.Now()
	var fresh, repeat []*jobTiming
	var mergeTail []float64
	submit := func(spec api.JobSpec) *jobTiming {
		j := c.roundTrip(cl, spec)
		if c.wire != nil {
			mergeTail = append(mergeTail, ms(j.done.Sub(c.wire.lastUploadEnd())))
		}
		return j
	}
	for n := 0; e.more(n, 2, e.deadline(start)); n++ {
		spec := table1Spec(e.derive(uint64(100 + n)))
		fresh = append(fresh, submit(spec))
		repeat = append(repeat, submit(spec))
	}
	wall := time.Since(start)
	hits1, misses1 := c.scrapeArtifacts()

	// Every result against a serial simulation of its spec, computed
	// once per seed, as many at a time as there are cores.
	want := make([]*fault.Result, len(fresh))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, j := range fresh {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			want[i] = oracle(e, j.spec)
			<-sem
		}()
	}
	wg.Wait()
	for i := range fresh {
		for _, j := range []*jobTiming{fresh[i], repeat[i]} {
			ok := e.check(j.err == nil && j.res != nil, "job %s: %v", j.id, j.err)
			if ok {
				ok = headlineAgrees(e, j, want[i]) && c.mergedAgrees(j, want[i])
			}
			e.op(ok)
		}
	}
	if fresh[0].res != nil {
		e.stat("dsp.first_job", fmt.Sprintf("%d/%d", fresh[0].res.Detected, fresh[0].res.Faults))
	}
	freshP50 := median(latenciesMS(fresh))
	e.setN("op_p50_ms", freshP50, len(fresh))
	e.setN("work_per_s", float64(len(fresh)+len(repeat)-e.failed)/wall.Seconds(), len(fresh)+len(repeat))
	e.setN("fleet.repeat_job_latency_p50_ms", median(latenciesMS(repeat)), len(repeat))

	if e.traced() {
		e.set("artifacts.hits", hits1-hits0)
		e.set("artifacts.misses", misses1-misses0)
		e.setN("engine.merge_tail_ms", median(mergeTail), len(mergeTail))
		c.lifecycleMetrics(fresh)
		c.leaseMetrics()
	}
	c.discard()
	if e.traced() {
		// What the same campaign costs without the fleet: one sharded
		// library call on every core.
		d, _ := engine.GetDesign("dsp")
		local := &kernelCase{name: "local", d: d, vecs: bistVectors(d, 8192, e.derive(100))}
		var took []float64
		for i := 0; i < 2; i++ {
			slices, _ := local.simulate(e, "local", 0, engine.SimOptions{Workers: runtime.GOMAXPROCS(0), NoArtifacts: true})
			took = append(took, 1000*sum(slices))
		}
		e.set("fleet.distribution_overhead_pct", 100*(freshP50-median(took))/median(took))
		e.set("logic.compile_ms", ms(e.tr.timed("logic.Compile", "layers", 0, func() { logic.Compile(d.Netlist) })))
	}
}

// mergedAgrees compares what the fleet merged for a job, fault by
// fault, with the serial oracle.
func (c *coordinator) mergedAgrees(j *jobTiming, want *fault.Result) bool {
	c.mu.Lock()
	got := c.merged[j.id]
	c.mu.Unlock()
	if !c.e.check(got != nil && len(got.DetectedAt) == len(want.DetectedAt), "job %s: no merged result to compare", j.id) {
		return false
	}
	for i := range want.DetectedAt {
		if got.DetectedAt[i] != want.DetectedAt[i] {
			return c.e.check(false, "job %s: fault %d merged as cycle %d, serial oracle says %d", j.id, i, got.DetectedAt[i], want.DetectedAt[i])
		}
	}
	return true
}

// leaseMetrics turns the round-tripper's per-route figures into the
// lease-layer metrics.
func (c *coordinator) leaseMetrics() {
	e, w := c.e, c.wire
	acquire, upload, beat := w.route(routeAcquire), w.route(routeUpload), w.route(routeBeat)
	e.setN("lease.acquire_rtt_ms", median(msAll(acquire.rtt)), len(acquire.rtt))
	e.setN("lease.upload_rtt_ms", median(msAll(upload.rtt)), len(upload.rtt))
	if n := len(upload.rtt); n > 0 {
		e.set("lease.upload_bytes", float64(upload.reqBytes)/float64(n))
	}
	e.set("lease.heartbeats", float64(len(beat.rtt)))
	if n := len(acquire.rtt); n > 0 {
		e.set("lease.empty_poll_ratio", float64(acquire.status[http.StatusNoContent])/float64(n))
	}
	w.mu.Lock()
	units := append([]time.Duration(nil), w.unitExec...)
	w.mu.Unlock()
	if len(units) > 0 {
		e.setN("worker.unit_exec_s", median(msAll(units))/1000, len(units))
	}
}

func runFleetGA(e *env) {
	ga := func(g api.GaSpec) api.JobSpec { return api.JobSpec{Kind: api.JobGaSearch, Design: "dsp", Ga: &g} }
	var c *coordinator
	e.setup(3, func() {
		c = startWarm(e, c, true, "dsp", ga(api.GaSpec{Population: 2, Generations: 1, Iterations: 5, Seed: 1}))
	})
	d, err := engine.GetDesign("dsp")
	if err != nil {
		e.fatal(err)
	}
	cl := c.client("client")
	hits0, misses0 := c.scrapeArtifacts()

	start := time.Now()
	var runs []*jobTiming
	for n := 0; e.more(n, 2, e.deadline(start)); n++ {
		runs = append(runs, c.roundTrip(cl, ga(api.GaSpec{Population: 6, Generations: 2, Iterations: 30, Seed: int64(e.derive(uint64(n)))})))
	}
	hits1, misses1 := c.scrapeArtifacts()

	var evals, cacheHits, wall, generations float64
	for n, j := range runs {
		ok := e.check(j.err == nil && j.res != nil && j.res.Ga != nil, "ga job %d: %v", n, j.err)
		if ok {
			g := j.res.Ga
			evals += float64(g.Evaluations)
			cacheHits += float64(g.CacheHits)
			generations += float64(len(g.Generations))
			wall += j.latency().Seconds()
			ok = e.stat(fmt.Sprintf("ga.best_genome_%d", n), g.BestGenome)
			ok = e.stat(fmt.Sprintf("ga.evaluations_%d", n), fmt.Sprintf("%d evaluated, %d cached", g.Evaluations, g.CacheHits)) && ok
			ok = bestReproduces(e, d.Netlist, d.Faults, j) && ok
		}
		e.op(ok)
	}
	e.setN("op_p50_ms", median(latenciesMS(runs)), len(runs))
	if wall > 0 {
		e.setN("work_per_s", evals/wall, int(evals))
		e.set("evolve.generation_s", wall/generations)
	}
	e.set("evolve.evaluations", evals)
	e.set("evolve.cache_hits", cacheHits)
	if e.traced() {
		e.set("artifacts.hits", hits1-hits0)
		e.set("artifacts.misses", misses1-misses0)
		c.leaseMetrics()
	}
	c.discard()
}

// bestReproduces re-simulates the winning phenotype serially in this
// process: the job's headline counts must be that campaign's.
func bestReproduces(e *env, n *logic.Netlist, faults []fault.Fault, j *jobTiming) bool {
	best := j.res.Ga.Best
	loop, err := isa.Assemble(best.Program)
	if !e.check(err == nil, "ga job %s: best program does not assemble: %v", j.id, err) {
		return false
	}
	vecs := selftest.Expand(&selftest.Program{Loop: loop}, selftest.ExpandOptions{
		Iterations: best.Iterations, Seed1: uint64(best.Seed), Seed2: uint64(best.Seed2),
		Taps1: best.Taps, ReseedEvery: best.ReseedEvery, Reseeds: best.Reseeds,
	})
	want, err := engine.Simulate(n, vecs, engine.SimOptions{
		SimOptions: fault.SimOptions{Faults: faults}, Workers: 1, NoArtifacts: true,
	})
	if err != nil {
		e.fatal(err)
	}
	return headlineAgrees(e, j, want)
}
