// Package chaos is a seeded, deterministic fault-injection framework
// for hardening the campaign infrastructure: named injection points are
// threaded through the simulator kernels, the campaign engine and the
// sbstd server, and a spec string arms a subset of them with a failure
// kind (panic, delay, error, corrupted result word, short write,
// context cancel).
//
// The framework follows the fault-injection-as-a-library approach: the
// production code declares *where* a failure could strike
// (chaos.Maybe("engine.shard")), the spec declares *what* strikes and
// *when*, and a seed makes the whole campaign reproducible. When
// nothing is armed, Maybe is a single atomic load — effectively free in
// the simulator hot loops.
//
// Spec grammar (the CHAOS environment variable or the -chaos flag):
//
//	point=kind[:opt=val]...[,point=kind...]
//
//	kinds: panic, delay, error, corrupt, shortwrite, cancel
//	opts:  p=<probability per hit, default 1>
//	       after=<skip the first N hits, default 0>
//	       times=<max fires, default 1, 0 = unlimited>
//	       delay=<duration for delay/cancel kinds, default 10ms>
//
// Example: one shard panic and a corrupted compiled-kernel batch word,
// reproducible under seed 42:
//
//	CHAOS='engine.shard=panic,logic.eventsim.diff=corrupt:times=50' \
//	CHAOS_SEED=42 sbstd ...
//
// Every fire increments the chaos.injected counter (and a per-point
// chaos.injected.<point> counter) on the default obs registry, so a
// chaos campaign leaves an audit trail of exactly what was injected.
package chaos

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Kind is a failure mode an armed point injects.
type Kind uint8

// The failure kinds. Each call site applies only the kinds that make
// sense for it (a Fire of a kind the site never asks about is a no-op),
// so a spec can only trigger failures the code has declared survivable.
const (
	KindNone Kind = iota
	// KindPanic makes Fire.PanicNow panic.
	KindPanic
	// KindDelay makes Fire.Sleep block for the configured duration.
	KindDelay
	// KindError makes Fire.Err return an *InjectedError.
	KindError
	// KindCorrupt makes Fire.CorruptWord flip one seeded-random bit.
	KindCorrupt
	// KindShortWrite makes Fire.ShortWrite truncate a buffer.
	KindShortWrite
	// KindCancel makes Fire.Cancel invoke a cancel function (after the
	// configured delay).
	KindCancel
)

var kindNames = map[string]Kind{
	"panic":      KindPanic,
	"delay":      KindDelay,
	"error":      KindError,
	"corrupt":    KindCorrupt,
	"shortwrite": KindShortWrite,
	"cancel":     KindCancel,
}

// String names the kind as the spec grammar spells it.
func (k Kind) String() string {
	for n, v := range kindNames {
		if v == k {
			return n
		}
	}
	return "none"
}

// InjectedError is the error Fire.Err returns for error-kind fires, so
// call sites (and tests) can recognise injected failures.
type InjectedError struct {
	// Point is the injection point that fired.
	Point string
}

func (e *InjectedError) Error() string {
	return "chaos: injected error at " + e.Point
}

// point is one armed injection point's spec plus its fire bookkeeping.
type point struct {
	name  string
	kind  Kind
	prob  float64
	after int64
	times int64 // max fires; 0 = unlimited
	delay time.Duration

	hits  atomic.Int64
	fired atomic.Int64
	ctr   *obs.Counter
}

// Config is a parsed, armable chaos specification.
type Config struct {
	// Seed drives every probabilistic and randomized decision (fire
	// probability, corrupted bit choice), making a chaos campaign
	// reproducible.
	Seed   int64
	points map[string]*point
}

// Points returns the armed point names, sorted (diagnostics).
func (c *Config) Points() []string {
	names := make([]string, 0, len(c.points))
	for n := range c.points {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Parse compiles a spec string (see the package comment for the
// grammar) into a Config. An empty spec yields an empty, harmless
// config.
func Parse(spec string, seed int64) (*Config, error) {
	cfg := &Config{Seed: seed, points: make(map[string]*point)}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		name, kindName, ok := strings.Cut(parts[0], "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("chaos: clause %q is not point=kind", clause)
		}
		kind, ok := kindNames[kindName]
		if !ok {
			return nil, fmt.Errorf("chaos: unknown kind %q in %q", kindName, clause)
		}
		p := &point{
			name:  name,
			kind:  kind,
			prob:  1,
			times: 1,
			delay: 10 * time.Millisecond,
			ctr:   obs.Default().Counter("chaos.injected." + name),
		}
		for _, opt := range parts[1:] {
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: option %q in %q is not key=val", opt, clause)
			}
			var err error
			switch key {
			case "p":
				p.prob, err = strconv.ParseFloat(val, 64)
				if err == nil && (p.prob < 0 || p.prob > 1) {
					err = fmt.Errorf("probability out of [0,1]")
				}
			case "after":
				p.after, err = strconv.ParseInt(val, 10, 64)
			case "times":
				p.times, err = strconv.ParseInt(val, 10, 64)
			case "delay":
				p.delay, err = time.ParseDuration(val)
			default:
				err = fmt.Errorf("unknown option")
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: option %q in %q: %v", opt, clause, err)
			}
		}
		if prev, dup := cfg.points[name]; dup {
			return nil, fmt.Errorf("chaos: point %q armed twice (%s and %s)", name, prev.kind, kind)
		}
		cfg.points[name] = p
	}
	return cfg, nil
}

var (
	// armed is the fast-path gate every Maybe checks first: when no
	// config is armed, an injection point costs one atomic load.
	armed   atomic.Bool
	mu      sync.Mutex
	current *Config

	ctrInjected = obs.Default().Counter("chaos.injected")
)

// Arm makes the config live. Points reset their hit/fire counters on
// every Arm, so re-arming the same Config restarts the schedule.
func Arm(c *Config) {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range c.points {
		p.hits.Store(0)
		p.fired.Store(0)
	}
	current = c
	armed.Store(len(c.points) > 0)
}

// Disarm returns the process to the no-injection state.
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	current = nil
	armed.Store(false)
}

// Armed reports whether any injection point is live.
func Armed() bool { return armed.Load() }

// Maybe is the injection point: it returns a Fire when the named point
// is armed and its schedule (after/times/p) says this hit fires, and
// nil otherwise — including always when chaos is disarmed, in which
// case the cost is a single atomic load.
func Maybe(name string) *Fire {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	cfg := current
	mu.Unlock()
	if cfg == nil {
		return nil
	}
	p := cfg.points[name]
	if p == nil {
		return nil
	}
	hit := p.hits.Add(1)
	if hit <= p.after {
		return nil
	}
	rng := mix(uint64(cfg.Seed), fnvHash(name), uint64(hit))
	if p.prob < 1 && float64(rng>>11)/(1<<53) >= p.prob {
		return nil
	}
	if p.times > 0 {
		// Claim one of the bounded fire slots atomically so concurrent
		// hits never over-fire.
		if n := p.fired.Add(1); n > p.times {
			p.fired.Add(-1)
			return nil
		}
	} else {
		p.fired.Add(1)
	}
	ctrInjected.Add(1)
	p.ctr.Add(1)
	return &Fire{Point: name, Kind: p.kind, Delay: p.delay, rng: mix(rng, 0x9e3779b97f4a7c15, 1)}
}

// Fire is one triggered injection. All methods are nil-safe no-ops, and
// each applies only its own kind, so a call site can declare every
// failure mode it survives in a straight line:
//
//	if f := chaos.Maybe("engine.shard"); f != nil {
//		f.PanicNow()
//		f.Sleep(ctx)
//		if err := f.Err(); err != nil {
//			return nil, err
//		}
//	}
type Fire struct {
	Point string
	Kind  Kind
	Delay time.Duration
	rng   uint64
}

// PanicNow panics for panic-kind fires.
func (f *Fire) PanicNow() {
	if f != nil && f.Kind == KindPanic {
		panic("chaos: injected panic at " + f.Point)
	}
}

// Sleep blocks for the fire's delay (delay kind only), returning early
// when ctx is cancelled. A nil ctx sleeps the full delay.
func (f *Fire) Sleep(ctx context.Context) {
	if f == nil || f.Kind != KindDelay {
		return
	}
	if ctx == nil {
		time.Sleep(f.Delay)
		return
	}
	t := time.NewTimer(f.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Err returns an *InjectedError for error-kind fires and nil otherwise.
func (f *Fire) Err() error {
	if f != nil && f.Kind == KindError {
		return &InjectedError{Point: f.Point}
	}
	return nil
}

// CorruptWord flips one seeded-random bit of w for corrupt-kind fires
// and returns w unchanged otherwise.
func (f *Fire) CorruptWord(w uint64) uint64 {
	if f == nil || f.Kind != KindCorrupt {
		return w
	}
	return w ^ 1<<(f.rng&63)
}

// ShortWrite truncates data to half its length for shortwrite-kind
// fires, reporting whether it truncated.
func (f *Fire) ShortWrite(data []byte) ([]byte, bool) {
	if f == nil || f.Kind != KindShortWrite {
		return data, false
	}
	return data[:len(data)/2], true
}

// Cancel invokes cancel for cancel-kind fires, after the fire's delay
// (in a goroutine when the delay is non-zero).
func (f *Fire) Cancel(cancel func()) {
	if f == nil || f.Kind != KindCancel {
		return
	}
	if f.Delay <= 0 {
		cancel()
		return
	}
	d := f.Delay
	go func() {
		time.Sleep(d)
		cancel()
	}()
}

// mix is splitmix64-style avalanche over the three inputs, giving each
// (seed, point, hit) its own reproducible random stream.
func mix(a, b, c uint64) uint64 {
	z := a ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// FlagConfig is the -chaos/-chaos-seed flag pair the cmd tools
// register; Arm resolves flags over the CHAOS/CHAOS_SEED environment.
type FlagConfig struct {
	Spec string
	Seed int64
}

// Flags registers -chaos and -chaos-seed on the default flag set.
func Flags() *FlagConfig { return FlagsOn(flag.CommandLine) }

// FlagsOn registers the pair on an explicit flag set.
func FlagsOn(fs *flag.FlagSet) *FlagConfig {
	c := &FlagConfig{}
	fs.StringVar(&c.Spec, "chaos", "",
		"arm chaos fault injection: point=kind[:opt=val]...,... (overrides $CHAOS)")
	fs.Int64Var(&c.Seed, "chaos-seed", 0,
		"chaos randomness seed (0 = $CHAOS_SEED, else 1)")
	return c
}

// Arm parses and arms the flag (or environment) spec; with neither set
// it leaves chaos disarmed and returns nil.
func (c *FlagConfig) Arm() error {
	spec := c.Spec
	if spec == "" {
		spec = os.Getenv("CHAOS")
	}
	if spec == "" {
		return nil
	}
	seed := c.Seed
	if seed == 0 {
		if env := os.Getenv("CHAOS_SEED"); env != "" {
			var err error
			if seed, err = strconv.ParseInt(env, 10, 64); err != nil {
				return fmt.Errorf("chaos: CHAOS_SEED: %v", err)
			}
		} else {
			seed = 1
		}
	}
	cfg, err := Parse(spec, seed)
	if err != nil {
		return err
	}
	Arm(cfg)
	return nil
}
