package engine

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
)

// captureSink records every event; Simulate's shards emit concurrently.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *captureSink) Emit(ev obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// TestLocalExecutorStampsTrace: an in-process fault_sim stamps the
// job's trace ID on every simulation event, exactly as a worker unit
// does, so sbst-trace can attach a non-distributed sbstd's faultsim and
// engine.sim/shard* spans to the job.
func TestLocalExecutorStampsTrace(t *testing.T) {
	sink := &captureSink{}
	exec := NewExecutor(ExecConfig{Workers: 2, Sink: sink})
	spec := JobSpec{Kind: JobFaultSim, TraceID: "trace-local-1",
		Vectors: VectorSource{Kind: api.VecBIST, Count: 24, Seed: 1}}
	if _, err := exec(context.Background(), spec, func(Progress) {}); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	sawShard := false
	for _, ev := range sink.events {
		if ev.Trace != spec.TraceID {
			t.Errorf("%s event %q carries trace %q, want %q", ev.Type, ev.Name, ev.Trace, spec.TraceID)
		}
		sawShard = sawShard || strings.HasPrefix(ev.Name, "engine.sim/shard")
	}
	if !sawShard {
		t.Fatalf("no engine.sim/shard* event among %d captured", len(sink.events))
	}
}
