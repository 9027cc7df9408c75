// STC-style interval scheduling: the production shape of periodic
// in-field self-test (modeled on the TI Hercules self-test controller).
// Instead of one monolithic burst, the characterized self-test program
// is partitioned into N resumable intervals, each carrying its own
// golden MISR signature and timeout budget. The scheduler runs whole
// intervals inside a caller-supplied cycle budget (the time slice an OS
// can steal from the functional workload), yields when the next
// interval does not fit, and — per the restart-vs-continue policy —
// either resumes where it stopped or starts the schedule over.
//
// Interval boundaries are pipeline-drained points: each interval's
// vector slice ends with NOP drain words, so the architectural state
// snapshot taken at a boundary is exact and an interval executed three
// slots later behaves bit-identically to characterization.
//
// The comparator itself is tested STC-style: SelfCheck deliberately
// injects a known fault (a deterministic, seeded pick of datapath
// component and output bit) and asserts at least one interval signature
// mismatches. A comparator that cannot see a planted fault cannot be
// trusted to see a real one.
package online

import (
	"fmt"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/lfsr"
	"repro/internal/obs"
	"repro/internal/selftest"
)

// Policy selects what the scheduler does after a preemption or timeout.
type Policy int

const (
	// PolicyContinue resumes at the interrupted interval (the STC
	// "continue" mode: a long schedule makes progress across slots).
	PolicyContinue Policy = iota
	// PolicyRestart starts over at interval 0 (the STC "restart" mode:
	// a part that keeps getting preempted re-tests from scratch, trading
	// progress for freshness of the full signature chain).
	PolicyRestart
)

// ParsePolicy maps the wire spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "continue":
		return PolicyContinue, nil
	case "restart":
		return PolicyRestart, nil
	}
	return 0, fmt.Errorf("online: unknown policy %q (want continue or restart)", s)
}

func (p Policy) String() string {
	if p == PolicyRestart {
		return "restart"
	}
	return "continue"
}

// Interval outcome metrics, exposed on /v1/metrics.
var (
	famIntervals = obs.Default().CounterFamily("sbst_online_intervals_total",
		"Online self-test intervals executed, by outcome.", "result")
	ctrIntervalPass     = famIntervals.Counter("pass")
	ctrIntervalMismatch = famIntervals.Counter("mismatch")
	ctrIntervalTimeout  = famIntervals.Counter("timeout")
	ctrIntervalPreempt  = famIntervals.Counter("preempted")
	gaugeCurrentInt     = obs.Default().GaugeFamily("sbst_online_current_interval",
		"Next interval index the online scheduler will run.").Gauge()
	ctrSigMismatch = obs.Default().CounterFamily("sbst_online_signature_mismatches_total",
		"Interval signature comparator mismatches.").Counter()
	famSelfCheck = obs.Default().CounterFamily("sbst_online_selfcheck_total",
		"Comparator self-checks by outcome (caught = injected fault flagged).", "result")
)

// IntervalConfig sizes an interval schedule.
type IntervalConfig struct {
	// Config is the underlying burst configuration (iterations, MISR
	// width, LFSR seeds).
	Config
	// Intervals is the partition count (default 8, clamped to the
	// number of available vectors).
	Intervals int
	// TimeoutCycles is the per-interval timeout preload: an interval
	// needing more cycles than this is aborted as hung (0 = no timeout).
	// The STC analogue is the timeout preload register.
	TimeoutCycles int
	// Policy selects restart-vs-continue after preemption or timeout.
	Policy Policy
}

// Interval is one characterized slice of the self-test program.
type Interval struct {
	Index  int
	Cycles int
	// Golden is the interval's characterized MISR signature (fresh MISR
	// per interval, so intervals verify independently).
	Golden uint64
	vecs   []uint64
}

// IntervalSet is a characterized interval schedule: the partitioned
// vector stream plus each interval's golden signature.
type IntervalSet struct {
	cfg       IntervalConfig
	intervals []Interval
	total     int
}

// CharacterizeIntervals partitions the program's burst stream into
// resumable intervals and records each interval's golden signature on a
// fault-free behavioral core.
func CharacterizeIntervals(prog *selftest.Program, cfg IntervalConfig) (*IntervalSet, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10
	}
	if cfg.MISRWidth == 0 {
		cfg.MISRWidth = 16
	}
	if _, err := lfsr.NewMISR(cfg.MISRWidth); err != nil {
		return nil, err
	}
	if cfg.Intervals <= 0 {
		cfg.Intervals = 8
	}

	// Build the full burst stream exactly like a monolithic Selftest:
	// normalization preamble + expanded loop iterations. The drain words
	// move to the interval boundaries below.
	var stream []uint64
	for _, in := range normalizationPreamble() {
		stream = append(stream, uint64(in.Encode()))
	}
	stream = append(stream, selftest.Expand(prog, selftest.ExpandOptions{
		Iterations: cfg.Iterations,
		Seed1:      cfg.Seed1,
	})...)

	n := cfg.Intervals
	if n > len(stream) {
		n = len(stream)
	}
	s := &IntervalSet{cfg: cfg}
	chunk := (len(stream) + n - 1) / n
	for start := 0; start < len(stream); start += chunk {
		end := start + chunk
		if end > len(stream) {
			end = len(stream)
		}
		vecs := make([]uint64, 0, end-start+drainWords)
		vecs = append(vecs, stream[start:end]...)
		// Drain the pipeline at the boundary: the interval's last results
		// reach the output port inside its own signature window, and the
		// architectural snapshot taken here is exact for resumption.
		for i := 0; i < drainWords; i++ {
			vecs = append(vecs, 0)
		}
		s.intervals = append(s.intervals, Interval{Index: len(s.intervals), Cycles: len(vecs), vecs: vecs})
		s.total += len(vecs)
	}
	if cfg.TimeoutCycles > 0 {
		for i := range s.intervals {
			if s.intervals[i].Cycles > cfg.TimeoutCycles {
				return nil, fmt.Errorf("online: interval %d needs %d cycles, timeout preload is %d",
					i, s.intervals[i].Cycles, cfg.TimeoutCycles)
			}
		}
	}

	// Characterize: run the whole schedule in order on a clean core,
	// compacting each interval with a fresh MISR.
	core := dsp.New()
	for i := range s.intervals {
		sig, err := s.runInterval(core, &s.intervals[i])
		if err != nil {
			return nil, err
		}
		s.intervals[i].Golden = sig
	}
	return s, nil
}

// drainWords is the NOP padding at each interval boundary (pipeline
// depth + writeback margin, matching the monolithic burst's drain).
const drainWords = 4

// Intervals returns the characterized schedule (shared slice; callers
// must not mutate).
func (s *IntervalSet) Intervals() []Interval { return s.intervals }

// BurstCycles returns the whole schedule's length in cycles.
func (s *IntervalSet) BurstCycles() int { return s.total }

// runInterval feeds one interval into the core and returns its MISR
// signature. The core is left at the interval's exit boundary
// (pipeline drained).
func (s *IntervalSet) runInterval(core *dsp.Core, iv *Interval) (uint64, error) {
	m, err := lfsr.NewMISR(s.cfg.MISRWidth)
	if err != nil {
		return 0, err
	}
	for _, v := range iv.vecs {
		core.Step(uint32(v))
		m.Absorb(uint64(core.Output()))
	}
	return m.Signature(), nil
}

// IntervalOutcome is one interval execution's result.
type IntervalOutcome string

const (
	IntervalPass     IntervalOutcome = "pass"
	IntervalMismatch IntervalOutcome = "mismatch"
	IntervalTimeout  IntervalOutcome = "timeout"
)

// Status is the runner's scheduling state, the analogue of the STC's
// current-interval and status registers.
type Status struct {
	// Next is the interval index the next slot starts at.
	Next int
	// Completed counts interval executions that produced a signature
	// (pass or mismatch), across restarts.
	Completed int
	// Passed / Mismatches / Timeouts / Preemptions count outcomes.
	Passed      int
	Mismatches  int
	Timeouts    int
	Preemptions int
	// Slots counts Run invocations.
	Slots int
	// Done is set once every interval of one full schedule pass has
	// produced a signature.
	Done bool
	// Failed is set on the first mismatch or timeout; FailedInterval
	// names the interval (-1 while healthy).
	Failed         bool
	FailedInterval int
}

// Runner executes an interval schedule on a core across scheduling
// slots, saving and restoring the functional context around each slot
// and the test context between slots. Not safe for concurrent use.
type Runner struct {
	set  *IntervalSet
	core *dsp.Core
	st   Status
	// testState is the architectural state at the entry boundary of
	// interval st.Next (valid once mid-schedule).
	testState dsp.State
	midRun    bool
}

// NewRunner builds a runner for one core.
func NewRunner(set *IntervalSet, core *dsp.Core) *Runner {
	return &Runner{set: set, core: core, st: Status{FailedInterval: -1}}
}

// Status returns a copy of the scheduling state.
func (r *Runner) Status() Status { return r.st }

// Run executes one scheduling slot: whole intervals until the budget
// cannot fit the next one (budget 0 = unlimited, the whole remaining
// schedule). The caller's functional context is saved and restored
// around the slot. Returns the outcomes of the intervals executed in
// this slot.
func (r *Runner) Run(budgetCycles int) ([]IntervalOutcome, error) {
	if r.st.Done {
		return nil, nil
	}
	r.st.Slots++
	// Let the workload's in-flight instructions retire before the context
	// switch: architectural snapshots are only exact at drained points,
	// and the drain folds those retirements into the saved context
	// instead of losing them (or worse, letting them execute into the
	// test window and corrupt the signature).
	r.core.Drain()
	saved := r.core.SaveState()
	defer r.core.RestoreState(saved)

	// Re-enter the test context: mid-schedule intervals restore their
	// entry-boundary snapshot; interval 0 restores the characterization
	// entry state (reset-equivalent), which also pins the output port the
	// MISR starts absorbing before the normalization preamble has landed.
	if r.st.Next > 0 && r.midRun {
		r.core.RestoreState(r.testState)
	} else {
		r.core.RestoreState(dsp.State{})
	}

	var outcomes []IntervalOutcome
	remaining := budgetCycles
	for r.st.Next < len(r.set.intervals) {
		iv := &r.set.intervals[r.st.Next]
		if budgetCycles > 0 && remaining < iv.Cycles {
			// Preemption: the slot cannot fit the next interval.
			r.st.Preemptions++
			ctrIntervalPreempt.Add(1)
			if r.set.cfg.Policy == PolicyRestart {
				r.st.Next = 0
				r.midRun = false
			}
			gaugeCurrentInt.Set(float64(r.st.Next))
			return outcomes, nil
		}
		if t := r.set.cfg.TimeoutCycles; t > 0 && iv.Cycles > t {
			// Timeout preload says this interval hung (cannot happen for
			// a well-characterized set — see CharacterizeIntervals — but
			// the field check mirrors the STC's independent watchdog).
			r.st.Timeouts++
			ctrIntervalTimeout.Add(1)
			r.fail(iv.Index)
			if r.set.cfg.Policy == PolicyRestart {
				r.st.Next = 0
				r.midRun = false
			}
			gaugeCurrentInt.Set(float64(r.st.Next))
			return append(outcomes, IntervalTimeout), nil
		}
		sig, err := r.set.runInterval(r.core, iv)
		if err != nil {
			return outcomes, err
		}
		remaining -= iv.Cycles
		r.st.Completed++
		if sig == iv.Golden {
			r.st.Passed++
			ctrIntervalPass.Add(1)
			outcomes = append(outcomes, IntervalPass)
		} else {
			r.st.Mismatches++
			ctrIntervalMismatch.Add(1)
			ctrSigMismatch.Add(1)
			r.fail(iv.Index)
			outcomes = append(outcomes, IntervalMismatch)
		}
		r.st.Next++
		r.testState = r.core.SaveState()
		r.midRun = true
		gaugeCurrentInt.Set(float64(r.st.Next))
	}
	r.st.Done = true
	r.st.Next = 0
	r.midRun = false
	gaugeCurrentInt.Set(0)
	return outcomes, nil
}

func (r *Runner) fail(interval int) {
	if !r.st.Failed {
		r.st.Failed = true
		r.st.FailedInterval = interval
	}
}

// SelfCheckResult reports a deliberate-fault comparator check.
type SelfCheckResult struct {
	// Component and Bit name the injected fault: the component's output
	// bit that was flipped on every observation.
	Component dsp.Component
	Bit       int
	// Caught is true when at least one interval signature mismatched.
	Caught bool
	// MismatchedIntervals lists the intervals that flagged the fault.
	MismatchedIntervals []int
}

// selfCheckComponents are the fault-insertion targets: datapath
// components whose output bits the self-test programs demonstrably
// propagate to the output port (the paper's Table 2 columns with
// near-full observability).
var selfCheckComponents = []dsp.Component{dsp.CompMultiplier, dsp.CompAddSub, dsp.CompLimiter}

// stuckBitProbe flips one output bit of one component on every cycle —
// the behavioral analogue of a stuck-at fault on that line.
type stuckBitProbe struct {
	comp dsp.Component
	bit  int
}

func (p stuckBitProbe) Observe(comp dsp.Component, mode int, value uint32) uint32 {
	if comp == p.comp {
		return value ^ 1<<uint(p.bit)
	}
	return value
}

// SelfCheck is the STC's signature-compare self-test: it picks a known
// fault with a deterministic seeded draw (chaos-style — same seed, same
// fault), injects it into a fresh core, runs the full interval
// schedule, and reports whether the comparator flagged it. The caller
// asserts Caught; a miss means the comparator (or the program's
// observability) cannot be trusted.
func (s *IntervalSet) SelfCheck(seed int64) (SelfCheckResult, error) {
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	comp := selfCheckComponents[rng.Intn(len(selfCheckComponents))]
	// Middle-of-word bits sit inside the limiter's saturation window and
	// the output port's byte lane for every target component, so the
	// flip is architecturally visible; which one is the seeded draw.
	lo, hi := comp.Width()/4, comp.Width()/2
	bit := lo + rng.Intn(hi-lo+1)

	core := dsp.New()
	core.SetProbe(stuckBitProbe{comp: comp, bit: bit})
	res := SelfCheckResult{Component: comp, Bit: bit}
	for i := range s.intervals {
		sig, err := s.runInterval(core, &s.intervals[i])
		if err != nil {
			return res, err
		}
		if sig != s.intervals[i].Golden {
			res.Caught = true
			res.MismatchedIntervals = append(res.MismatchedIntervals, i)
		}
	}
	if res.Caught {
		famSelfCheck.Counter("caught").Add(1)
	} else {
		famSelfCheck.Counter("missed").Add(1)
	}
	return res, nil
}
