package obs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
)

// Config is the shared observability flag bundle every cmd/* tool
// registers: -trace (NDJSON event file), -v (human progress renderer)
// and -cpuprofile (pprof capture of the hot loops).
type Config struct {
	Trace      string
	Verbose    bool
	CPUProfile string
	// Source names this process in the trace_open header of its NDJSON
	// trace ("sbstd", a worker ID). Defaults to the binary name.
	Source string
}

// Flags registers the bundle on the default flag set (call before
// flag.Parse).
func Flags() *Config { return FlagsOn(flag.CommandLine) }

// FlagsOn registers the bundle on an explicit flag set.
func FlagsOn(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.StringVar(&c.Trace, "trace", "", "write an NDJSON event trace to this file")
	fs.BoolVar(&c.Verbose, "v", false, "render live progress (rate/ETA) to stderr")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	return c
}

// Runtime is a started observability configuration: the composite sink
// to hand to instrumented layers, the open trace file and the running
// CPU profile. Close flushes and stops everything and emits a final
// counters snapshot of the default registry. A nil *Runtime is inert.
type Runtime struct {
	sink     Sink
	ndjson   *NDJSONSink
	traceF   *os.File
	profF    *os.File
	renderer *Renderer
}

// Start opens the configured sinks and starts CPU profiling. It always
// returns a usable (possibly inert) Runtime on success.
func (c *Config) Start() (*Runtime, error) {
	rt := &Runtime{}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("obs: create trace: %w", err)
		}
		rt.traceF = f
		rt.ndjson = NewNDJSONSink(f)
		source := c.Source
		if source == "" {
			source = fmt.Sprintf("%s-%d", filepath.Base(os.Args[0]), os.Getpid())
		}
		AnnounceTrace(rt.ndjson, source)
	}
	if c.Verbose {
		rt.renderer = NewRenderer(os.Stderr)
	}
	var sinks []Sink
	if rt.ndjson != nil {
		sinks = append(sinks, rt.ndjson)
	}
	if rt.renderer != nil {
		sinks = append(sinks, rt.renderer)
	}
	rt.sink = Combine(sinks...)
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("obs: create cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			rt.Close()
			return nil, fmt.Errorf("obs: start cpuprofile: %w", err)
		}
		rt.profF = f
	}
	return rt, nil
}

// MustStart is Start, exiting the process on error (command-line use).
func (c *Config) MustStart() *Runtime {
	rt, err := c.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return rt
}

// Sink returns the composite event sink (nil when neither -trace nor -v
// was given, so instrumented layers skip event construction entirely).
func (r *Runtime) Sink() Sink {
	if r == nil {
		return nil
	}
	return r.sink
}

// Span opens a root span on the runtime's sink (nil span when inert).
func (r *Runtime) Span(name string) *Span {
	if r == nil {
		return nil
	}
	return NewSpan(r.sink, name)
}

// Flush drains the NDJSON trace buffer to disk without closing
// anything. Daemons call it the moment a drain begins, so a process
// killed mid-shutdown (or mid-lease) has already persisted its tail
// events. Safe on a nil or traceless runtime.
func (r *Runtime) Flush() error {
	if r == nil || r.ndjson == nil {
		return nil
	}
	return r.ndjson.Flush()
}

// Close emits a final default-registry counters snapshot, flushes the
// trace, and stops CPU profiling. Safe on a nil runtime and idempotent
// for the profile (pprof tolerates a single stop).
func (r *Runtime) Close() error {
	if r == nil {
		return nil
	}
	if r.sink != nil {
		if snap := Default().Snapshot(); len(snap) > 0 {
			fields := make(map[string]any, len(snap))
			for k, v := range snap {
				fields[k] = v
			}
			r.sink.Emit(Event{Type: EventCounters, Name: "registry", Fields: fields})
		}
	}
	var err error
	if r.ndjson != nil {
		err = r.ndjson.Flush()
	}
	if r.traceF != nil {
		if cerr := r.traceF.Close(); err == nil {
			err = cerr
		}
		r.traceF = nil
	}
	if r.profF != nil {
		pprof.StopCPUProfile()
		if cerr := r.profF.Close(); err == nil {
			err = cerr
		}
		r.profF = nil
	}
	return err
}
