package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a cached handle to one named registry counter. Adds are a
// single atomic operation, cheap enough for per-segment and per-run
// accounting in hot loops (cache the handle in a package variable; do
// not call Registry.Counter per iteration).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe; a no-op while metrics are
// disarmed (SetArmed(false)).
func (c *Counter) Add(delta int64) {
	if c != nil && !disarmed.Load() {
		c.v.Add(delta)
	}
}

// Load returns the current value (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a process-wide table of named counters and gauges:
// vectors simulated, faults dropped, PODEM backtracks and aborts, LFSR
// reseeds, greedy-cover iterations, and whatever later subsystems add.
// Lookup is mutex-guarded; mutation through Counter handles is atomic.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns (creating if needed) the handle for a named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot returns a copy of every counter's current value.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the internal packages
// report through.
func Default() *Registry { return defaultRegistry }
