// Command sbstd is the self-test campaign server: a long-running HTTP
// daemon that queues fault-simulation, n-detect, sequential-ATPG,
// composite experiment, campaign-matrix, online-burst and ga_search
// jobs and runs them on a worker pool, each fault simulation on every
// core. Each job's "design" field selects the simulated
// circuit from the design registry — the gate-level DSP core by
// default, a generated family member ("fam/w8r4s1l1p2"), or a bundled
// .bench netlist ("bench/c432"); GET /v1/meta lists the bundled IDs. A
// campaign_matrix job sweeps N designs × M stimulus schemes and rolls
// the per-cell coverage into one table; a ga_search job evolves a
// self-test program skeleton toward maximum fault coverage per cycle.
// The API is served under /v1 only — the historical unversioned routes
// answer 404 with a Link header to their successor.
//
//	sbstd -addr :8321 -checkpoint campaigns.json
//
//	curl -X POST localhost:8321/v1/jobs \
//	     -d '{"kind":"fault_sim","vectors":{"kind":"bist","count":20000}}'
//	curl -X POST localhost:8321/v1/jobs \
//	     -d '{"kind":"fault_sim","design":"bench/c432","vectors":{"kind":"bist","count":4096}}'
//	curl -X POST localhost:8321/v1/jobs \
//	     -d '{"kind":"campaign_matrix","matrix":{"designs":["dsp","bench/s27"],"schemes":[{"kind":"bist","count":1024}]}}'
//	curl -X POST localhost:8321/v1/jobs \
//	     -d '{"kind":"ga_search","ga":{"population":12,"generations":6,"seed":7}}'
//	curl localhost:8321/v1/jobs/job-0001            # state + progress
//	curl 'localhost:8321/v1/jobs?kind=ga_search&limit=10'   # filtered page
//	curl localhost:8321/v1/jobs/job-0001/result     # coverage numbers
//	curl localhost:8321/v1/metrics                  # Prometheus exposition
//	curl -N localhost:8321/v1/jobs/job-0001/events  # SSE live progress
//
// Client modes turn the binary into a live consumer of a running
// coordinator: -follow streams one job's SSE events and renders
// progress at ~1 Hz, printing the final result as JSON on stdout;
// -list walks GET /v1/jobs (cursor pagination under the hood) with
// optional -kind/-state filters; -evolve submits a ga_search through
// the typed client and follows it to the evolved program.
//
//	sbstd -follow job-0001 -coordinator http://localhost:8321
//	sbstd -list -kind ga_search -coordinator http://localhost:8321
//	sbstd -evolve -ga-population 12 -ga-generations 6 -coordinator http://localhost:8321
//
// SIGTERM/SIGINT drains gracefully: submissions get 503, running jobs
// finish (until -drain-timeout, after which they stop at the next
// segment boundary and return to the queue), and the final checkpoint
// captures every job so a restart with the same -checkpoint resumes the
// campaign. The NDJSON trace buffer is flushed the moment the drain
// begins, so a process killed mid-drain has persisted its tail events.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8321", "HTTP listen address")
	queueWorkers := flag.Int("queue-workers", 2, "concurrent job executors")
	maxPending := flag.Int("max-pending", 64, "bounded pending-job buffer")
	maxAttempts := flag.Int("max-attempts", 2, "attempts per job before a retryable failure fails it")
	checkpoint := flag.String("checkpoint", "", "JSON state file for checkpoint/resume")
	journalPath := flag.String("journal", "", "write-ahead job journal replayed on top of -checkpoint; makes submits and results survive kill -9")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "forced-stop deadline after SIGTERM")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-time bound (0 = none; spec deadline_sec can tighten)")
	stuckTimeout := flag.Duration("stuck-timeout", 10*time.Minute, "cancel+retry a job publishing no progress for this long (0 = off)")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "HTTP request handler timeout (0 = none)")
	maxInflight := flag.Int("max-inflight", 128, "concurrent HTTP requests before load shedding (0 = unlimited)")
	distributed := flag.Bool("distributed", false, "run as coordinator: fault campaigns become leased work units for sbst-worker processes")
	units := flag.Int("units", 8, "work units per distributed campaign (ignored without -distributed)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "lease lifetime without a heartbeat (ignored without -distributed)")
	unitAttempts := flag.Int("unit-attempts", 3, "grants per work unit before the campaign fails (ignored without -distributed)")
	followJob := flag.String("follow", "", "follow mode: stream this job's SSE events from -coordinator and exit with its result")
	coordinator := flag.String("coordinator", "http://localhost:8321", "coordinator base URL for the client modes (-follow, -list, -evolve)")
	listMode := flag.Bool("list", false, "list mode: print the coordinator's job table and exit")
	listKind := flag.String("kind", "", "with -list: only jobs of this kind (e.g. ga_search)")
	listState := flag.String("state", "", "with -list: only jobs in this state (queued|running|completed|failed)")
	evolveMode := flag.Bool("evolve", false, "evolve mode: submit a ga_search to -coordinator and follow it")
	gaDesign := flag.String("design", "", "with -evolve: design ID (default: the DSP core)")
	gaPopulation := flag.Int("ga-population", 0, "with -evolve: GA population size (0 = server default)")
	gaGenerations := flag.Int("ga-generations", 0, "with -evolve: GA generations (0 = server default)")
	gaSeed := flag.Int64("ga-seed", 0, "with -evolve: GA random seed (0 = server default)")
	obsCfg := obs.Flags()
	chaosCfg := chaos.Flags()
	flag.Parse()

	if *followJob != "" {
		if err := follow(*coordinator, *followJob); err != nil {
			fail(nil, err)
		}
		return
	}
	if *listMode {
		c := client.New(*coordinator, client.Options{})
		if err := runList(context.Background(), c, *listKind, *listState, os.Stdout); err != nil {
			fail(nil, err)
		}
		return
	}
	if *evolveMode {
		err := runEvolve(*coordinator, *gaDesign, api.GaSpec{
			Population:  *gaPopulation,
			Generations: *gaGenerations,
			Seed:        *gaSeed,
		})
		if err != nil {
			fail(nil, err)
		}
		return
	}

	rt := obsCfg.MustStart()
	defer rt.Close()
	if err := chaosCfg.Arm(); err != nil {
		fail(rt, err)
	}

	events := engine.NewJobEventBroker()
	execCfg := engine.ExecConfig{Sink: rt.Sink()}
	exec := engine.NewExecutor(execCfg)

	// The write-ahead journal opens first: its replayed records stack on
	// top of the checkpoint in Recover, and a torn tail from a previous
	// kill -9 is truncated here, not treated as fatal.
	var journal *engine.Journal
	var journalRecs []engine.JournalRecord
	if *journalPath != "" {
		var err error
		journal, journalRecs, err = engine.OpenJournal(*journalPath)
		if err != nil {
			fail(rt, err)
		}
		defer journal.Close()
	}

	var pool *engine.LeasePool
	var distState func(string) *engine.DistState
	if *distributed {
		pool = engine.NewLeasePool(engine.PoolOptions{
			TTL:          *leaseTTL,
			UnitAttempts: *unitAttempts,
			Sink:         rt.Sink(),
			Events:       events,
			Journal:      journal,
		})
		defer pool.Close()
		exec = engine.NewDistExecutor(execCfg, pool, engine.DistOptions{Units: *units})
		distState = pool.SnapshotJob
	}

	q := engine.NewQueue(engine.QueueOptions{
		Workers:      *queueWorkers,
		MaxPending:   *maxPending,
		MaxAttempts:  *maxAttempts,
		Exec:         exec,
		Checkpoint:   *checkpoint,
		Sink:         rt.Sink(),
		JobTimeout:   *jobTimeout,
		StuckTimeout: *stuckTimeout,
		DistState:    distState,
		Events:       events,
		Journal:      journal,
	})
	if *checkpoint != "" || journal != nil {
		switch err := q.Recover(*checkpoint, journalRecs); {
		case err == nil:
			resumed := 0
			for _, j := range q.Jobs() {
				if j.State == engine.JobQueued {
					resumed++
				}
			}
			if len(q.Jobs()) > 0 || len(journalRecs) > 0 {
				src := *checkpoint
				switch {
				case src == "":
					src = *journalPath
				case *journalPath != "":
					src += " + " + *journalPath
				}
				fmt.Fprintf(os.Stderr, "sbstd: recovered %d jobs (%d resumable, %d journal records) from %s\n",
					len(q.Jobs()), resumed, len(journalRecs), src)
			}
		case errors.Is(err, fs.ErrNotExist):
			// Fresh campaign; the file appears at the first checkpoint.
		case errors.Is(err, engine.ErrCheckpointCorrupt):
			// Neither generation was loadable. Starting an empty campaign
			// is the graceful option — the corrupt files stay on disk for
			// post-mortem until the next successful checkpoint rotates
			// them out.
			fmt.Fprintf(os.Stderr, "sbstd: warning: %v; starting fresh\n", err)
		default:
			fail(rt, err)
		}
	}
	q.Start()

	srv := &http.Server{Addr: *addr, Handler: engine.NewServerWith(q, engine.ServerOptions{
		RequestTimeout: *requestTimeout,
		MaxInflight:    *maxInflight,
		Pool:           pool,
		Events:         events,
	})}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sbstd: listening on %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fail(rt, err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "sbstd: draining...")
	// Persist the trace tail now: if the drain is cut short by SIGKILL,
	// everything emitted up to this point is already on disk.
	if err := rt.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "sbstd: trace flush:", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sbstd: http shutdown:", err)
	}
	if err := q.Drain(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sbstd: drain:", err)
	}
	fmt.Fprintln(os.Stderr, "sbstd: drained")
}

// follow streams one job's SSE events and renders them at ~1 Hz: the
// progress frames drive the rewriting status line, state and lease
// frames print as permanent lines, and the final result lands on
// stdout as JSON (stderr carries only the rendering).
func follow(coordinator, jobID string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := client.New(coordinator, client.Options{})
	r := obs.NewRenderer(os.Stderr)
	res, err := c.Follow(ctx, jobID, 0, func(ev api.JobEvent) {
		switch ev.Type {
		case api.JobEventProgress:
			if ev.Progress == nil {
				return
			}
			r.Emit(obs.Event{Type: obs.EventProgress, Name: jobID, Fields: map[string]any{
				"done": ev.Progress.Done, "total": ev.Progress.Total,
				"detected": ev.Progress.Detected, "remaining": ev.Progress.Remaining,
				"coverage": ev.Progress.Coverage,
			}})
		case api.JobEventState:
			r.Emit(obs.Event{Type: obs.EventCounters, Name: jobID, Fields: map[string]any{
				"state": string(ev.State), "trace": ev.TraceID,
			}})
		case api.JobEventLease:
			if ev.Lease == nil {
				return
			}
			fields := map[string]any{"event": ev.Lease.Event, "unit": ev.Lease.Unit}
			if ev.Lease.WorkerID != "" {
				fields["worker"] = ev.Lease.WorkerID
			}
			if ev.Lease.Reason != "" {
				fields["reason"] = ev.Lease.Reason
			}
			r.Emit(obs.Event{Type: obs.EventCounters, Name: jobID + " lease", Fields: fields})
		}
	})
	if err != nil {
		return err
	}
	r.Emit(obs.Event{Type: obs.EventSummary, Name: jobID, Fields: map[string]any{
		"coverage": res.Coverage, "cycles": res.Cycles,
		"faults": res.Faults, "detected": res.Detected,
	}})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func fail(rt *obs.Runtime, err error) {
	rt.Close()
	fmt.Fprintln(os.Stderr, "sbstd:", err)
	os.Exit(1)
}
