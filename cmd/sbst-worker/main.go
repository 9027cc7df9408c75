// Command sbst-worker is one member of a distributed campaign fleet:
// it polls an sbstd coordinator (started with -distributed) for leases
// over runs of work units, simulates each lease's fault slice in one
// call against the unit's design — resolved from the spec's design ID through the same
// registry the coordinator uses (an LRU keeps recently built designs
// hot), heartbeats while it runs, and uploads the checksummed
// detection bitmaps. Workers are stateless and interchangeable — kill
// one mid-unit and its lease expires back into the pool; start more
// and the campaign merely finishes sooner. The merged campaign result
// is bit-identical for any fleet size.
//
//	sbstd -addr :8321 -distributed &
//	sbst-worker -coordinator http://localhost:8321 &
//	sbst-worker -coordinator http://localhost:8321 -metrics-addr :9101 &
//	curl localhost:9101/metrics        # Prometheus exposition
//
// SIGTERM/SIGINT exits gracefully: a unit in flight is failed back to
// the coordinator as retryable so another worker picks it up, and the
// NDJSON trace buffer is flushed immediately so a worker killed
// mid-drain has persisted its tail events.
package main

import (
	"context"
	"flag"
	"fmt"
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
	"repro/internal/worker"
)

func main() {
	coordinator := flag.String("coordinator", "http://localhost:8321", "sbstd base URL")
	id := flag.String("id", "", "worker identity in leases and logs (default host-pid)")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle sleep between lease polls when the coordinator has no work")
	retries := flag.Int("max-retries", 4, "HTTP retransmissions per call on transport trouble")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics on this address (e.g. :9101; empty = off)")
	obsCfg := obs.Flags()
	chaosCfg := chaos.Flags()
	flag.Parse()

	// Name the NDJSON trace after the lease identity, so sbst-trace
	// attributes this file's spans to the same worker the coordinator's
	// lease events talk about.
	if *id != "" {
		obsCfg.Source = *id
	}
	rt := obsCfg.MustStart()
	defer rt.Close()
	if err := chaosCfg.Arm(); err != nil {
		fail(rt, err)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", obs.Default().PrometheusHandler())
		mux.Handle("GET "+api.Prefix+"/metrics", obs.Default().PrometheusHandler())
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "sbst-worker: metrics listener:", err)
			}
		}()
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "sbst-worker: metrics on %s\n", *metricsAddr)
	}

	w := worker.New(worker.Options{
		Coordinator: *coordinator,
		ID:          *id,
		Poll:        *poll,
		Exec:        engine.ExecConfig{Sink: rt.Sink()},
		Client:      client.New(*coordinator, client.Options{MaxRetries: *retries}),
		Sink:        rt.Sink(),
	})
	fmt.Fprintf(os.Stderr, "sbst-worker: %s polling %s\n", w.ID(), *coordinator)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Persist the trace tail the moment a drain begins: a worker killed
	// while failing its lease back still leaves a complete trace.
	go func() {
		<-ctx.Done()
		_ = rt.Flush()
	}()
	if err := w.Run(ctx); err != nil {
		fail(rt, err)
	}
	fmt.Fprintln(os.Stderr, "sbst-worker: done")
}

func fail(rt *obs.Runtime, err error) {
	rt.Close()
	fmt.Fprintln(os.Stderr, "sbst-worker:", err)
	os.Exit(1)
}
