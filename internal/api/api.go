// Package api is the versioned wire contract of the sbstd campaign
// service: every JSON body that crosses the HTTP boundary — job
// submission and status, lease acquisition, heartbeats, result uploads,
// the error envelope and the capabilities document — is defined here
// and nowhere else. The server (internal/engine), the client package
// (internal/client) and the worker loop (internal/worker) all import
// these types, so the coordinator and a fleet of remote workers agree
// on the schema by construction.
//
// Routes are served under the Prefix ("/v1"). The legacy unversioned
// aliases from the pre-coordinator sbstd (deprecated since the /v1
// rollout) have been removed: they answer 404 with a Link header
// pointing at the /v1 successor route. GET /v1/meta
// serves a Meta document describing the running service's version and
// capabilities, so a worker can refuse to join a coordinator it does
// not understand.
//
// Two stringly-typed fields from the original engine API are now
// validated enums: JobKind (the campaign a job runs) and VectorKind
// (where its stimulus comes from). Validate rejects unknown values with
// an error wrapping ErrUnknownKind, which the server maps to HTTP 422 —
// a bad kind fails at submission, never mid-campaign.
package api

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/isa"
)

// Version is the wire-contract generation this package defines, and
// Prefix is the corresponding route prefix.
const (
	Version = "v1"
	Prefix  = "/v1"
)

// ErrUnknownKind marks validation failures caused by an unrecognized
// JobKind or VectorKind. The server answers these with 422
// (unprocessable) instead of the generic 400, so clients can tell a
// schema mismatch from a malformed body.
var ErrUnknownKind = errors.New("api: unknown kind")

// ErrUnknownDesign marks validation failures caused by a design ID the
// server's registry cannot resolve. The api package does not know the
// registry (the wire contract stays free of netlist code), so JobSpec
// validation cannot raise it; the queue checks the design at submission
// and wraps this sentinel, which the server maps to 422 with code
// unknown_design.
var ErrUnknownDesign = errors.New("api: unknown design")

// ErrSpecMismatch marks kind-safety violations: a JobSpec carrying a
// sub-spec (matrix, online, ga) that does not belong to its kind, or
// missing the one its kind requires. The server maps it to 422 with
// code spec_mismatch. The same Validate call enforces it at submission,
// journal replay and checkpoint load, so a mismatched spec can never
// reach an executor by any path.
var ErrSpecMismatch = errors.New("api: spec does not match job kind")

// JobKind selects the campaign a job runs.
type JobKind string

// The campaign kinds the executor understands. They mirror the paper's
// evaluation: plain stuck-at fault simulation, the n-detect quality
// variant, the bounded sequential-ATPG baseline, and the composite
// experiment comparing a self-test program against raw BIST. The
// campaign_matrix kind fans a fault_sim campaign over N designs × M
// stimulus schemes and rolls the per-cell results into one table.
const (
	JobFaultSim       JobKind = "fault_sim"
	JobNDetect        JobKind = "n_detect"
	JobSeqATPG        JobKind = "seq_atpg"
	JobExperiment     JobKind = "experiment"
	JobCampaignMatrix JobKind = "campaign_matrix"
	// JobOnlineBurst runs the STC-style online self-test interval
	// scheduler: a characterized self-test program partitioned into
	// resumable intervals with per-interval golden MISR signatures,
	// executed under a cycle budget with a restart-vs-continue policy,
	// optionally preceded by a comparator self-check that injects a
	// known fault and asserts the signature comparator catches it.
	JobOnlineBurst JobKind = "online_burst"
	// JobGaSearch runs a deterministic, seeded genetic search over
	// self-test program skeletons and LFSR seed/polynomial/reseed
	// configurations, with fault coverage per test cycle as fitness.
	// Each individual's fitness evaluation is an ordinary fault-sim
	// campaign on the evolved phenotype, so on a coordinator every
	// generation fans out across the worker fleet as lease-pool work
	// units.
	JobGaSearch JobKind = "ga_search"
)

// JobKinds lists every valid kind, in a fixed order (meta document,
// diagnostics).
func JobKinds() []JobKind {
	return []JobKind{JobFaultSim, JobNDetect, JobSeqATPG, JobExperiment, JobCampaignMatrix, JobOnlineBurst, JobGaSearch}
}

// Valid reports whether k is a known campaign kind.
func (k JobKind) Valid() bool {
	switch k {
	case JobFaultSim, JobNDetect, JobSeqATPG, JobExperiment, JobCampaignMatrix, JobOnlineBurst, JobGaSearch:
		return true
	}
	return false
}

// VectorKind selects where a job's stimulus stream comes from.
type VectorKind string

// The stimulus sources: raw 17-bit LFSR vectors, an inline self-test
// program in assembler syntax (looped through the template
// architecture), or the paper's committed self-test program.
const (
	VecBIST     VectorKind = "bist"
	VecProgram  VectorKind = "program"
	VecSelfTest VectorKind = "selftest"
)

// VectorKinds lists every valid stimulus source, in a fixed order.
func VectorKinds() []VectorKind {
	return []VectorKind{VecBIST, VecProgram, VecSelfTest}
}

// VectorSource describes where a job's stimulus stream comes from.
type VectorSource struct {
	// Kind is the stimulus source (see VectorKind).
	Kind VectorKind `json:"kind"`
	// Count is the vector count for VecBIST.
	Count int `json:"count,omitempty"`
	// Seed seeds the LFSRs (vector generation for VecBIST, template
	// expansion for VecProgram/VecSelfTest).
	Seed int64 `json:"seed,omitempty"`
	// Program is the assembler source for VecProgram.
	Program string `json:"program,omitempty"`
	// Iterations is the loop count for VecProgram/VecSelfTest expansion.
	Iterations int `json:"iterations,omitempty"`
	// Seed2 seeds the template architecture's LFSR2 (the register-field
	// XOR mask) for VecProgram/VecSelfTest expansion; zero keeps the
	// built-in seed.
	Seed2 int64 `json:"seed2,omitempty"`
	// Taps overrides LFSR1's feedback polynomial for VecProgram
	// expansion (a 16-bit tap mask; zero keeps the built-in primitive
	// polynomial). Evolved ga_search phenotypes carry their polynomial
	// gene here.
	Taps uint64 `json:"taps,omitempty"`
	// ReseedEvery, when > 0, reseeds LFSR1 every that many loop
	// iterations during VecProgram expansion, cycling through Reseeds —
	// the hybrid-BIST reseeding schedule.
	ReseedEvery int      `json:"reseed_every,omitempty"`
	Reseeds     []uint64 `json:"reseeds,omitempty"`
}

// MatrixSpec configures a campaign_matrix job: the cross product of
// Designs × Schemes, each cell an independent fault-simulation
// campaign on that design with that stimulus.
type MatrixSpec struct {
	// Designs lists the design IDs to sweep (registry grammar: "dsp",
	// "fam/<params>", "bench/<name>").
	Designs []string `json:"designs"`
	// Schemes lists the stimulus sources to apply to every design.
	Schemes []VectorSource `json:"schemes"`
}

// MatrixCell is one completed cell of a campaign_matrix job.
type MatrixCell struct {
	Design string     `json:"design"`
	Scheme VectorKind `json:"scheme"`
	// SchemeIndex disambiguates two schemes of the same kind (e.g. two
	// bist entries with different counts).
	SchemeIndex int     `json:"scheme_index"`
	Faults      int     `json:"faults"`
	Detected    int     `json:"detected"`
	Cycles      int     `json:"cycles"`
	Coverage    float64 `json:"coverage"`
}

// JobSpec is the typed request submitted to the queue (the
// POST /v1/jobs body).
type JobSpec struct {
	Kind JobKind `json:"kind"`
	// Design selects the circuit the campaign runs against (registry
	// grammar: "dsp", "fam/<params>", "bench/<name>"). Empty means the
	// default DSP core, so existing clients are unaffected. Unknown IDs
	// fail submission with 422 unknown_design.
	Design string `json:"design,omitempty"`
	// Vectors is the stimulus source for fault_sim, n_detect and
	// experiment jobs; seq_atpg generates its own tests and
	// campaign_matrix takes its schemes from Matrix.
	Vectors VectorSource `json:"vectors,omitempty"`
	// Matrix configures campaign_matrix jobs.
	Matrix *MatrixSpec `json:"matrix,omitempty"`
	// Online configures online_burst jobs; nil selects defaults.
	Online *OnlineSpec `json:"online,omitempty"`
	// Ga configures ga_search jobs; nil selects defaults.
	Ga *GaSpec `json:"ga,omitempty"`
	// Workers is accepted and ignored: a job's simulation is one call,
	// which spends every core. It stays on the wire so older clients'
	// specs still validate.
	Workers int `json:"workers,omitempty"`
	// NDetect is the per-fault detection target for n_detect jobs
	// (default 5).
	NDetect int `json:"n_detect,omitempty"`
	// SegmentLen overrides the simulator's drop/repack segment length.
	SegmentLen int `json:"segment_len,omitempty"`
	// Frames, SampleEvery and MaxBacktracks configure seq_atpg jobs.
	Frames        int `json:"frames,omitempty"`
	SampleEvery   int `json:"sample_every,omitempty"`
	MaxBacktracks int `json:"max_backtracks,omitempty"`
	// DeadlineSec bounds the job's wall time: the executor's context is
	// cancelled that many seconds after the job starts and the job fails
	// with a deadline error (no retry — a rerun would only time out
	// again). Zero inherits the queue's JobTimeout, if any.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// TraceID correlates every process touching this job: minted by the
	// queue at submission when empty, echoed in job snapshots and SSE
	// events, and carried to workers inside lease work units so their
	// NDJSON traces share the coordinator's ID (cmd/sbst-trace merges
	// them). Clients may pre-mint their own.
	TraceID string `json:"trace_id,omitempty"`
	// SubmitID is an optional client-supplied idempotency key. Two
	// submissions carrying the same SubmitID enqueue one job: the second
	// is answered with the first job's snapshot. This is what makes
	// "retry the submit until it sticks" safe across coordinator
	// restarts and load-shed 503s.
	SubmitID string `json:"submit_id,omitempty"`
}

// OnlineSpec configures an online_burst job: the STC-style interval
// schedule for in-field periodic self-test.
type OnlineSpec struct {
	// Intervals is the number of resumable intervals the self-test
	// program is partitioned into (the STC interval count; default 8).
	Intervals int `json:"intervals,omitempty"`
	// Iterations is the self-test loop expansion count (default 4).
	Iterations int `json:"iterations,omitempty"`
	// MISRWidth is the signature register width in bits (default 24).
	MISRWidth int `json:"misr_width,omitempty"`
	// TimeoutCycles is the per-interval timeout preload: an interval
	// that needs more cycles than this is aborted as hung (0 = no
	// timeout).
	TimeoutCycles int `json:"timeout_cycles,omitempty"`
	// Policy picks what happens after a preemption or timeout:
	// "continue" resumes at the interrupted interval, "restart" goes
	// back to interval 0 (default "continue").
	Policy string `json:"policy,omitempty"`
	// BudgetCycles bounds each scheduling slot: the scheduler runs whole
	// intervals until the slot budget cannot fit the next one, yields
	// (preemption), and resumes in the next slot. 0 runs the whole
	// program in one slot.
	BudgetCycles int `json:"budget_cycles,omitempty"`
	// SelfCheck enables the comparator self-check: before the clean
	// burst, a deliberately faulted run (deterministic, seeded component
	// and bit selection) must trip the signature comparator. A fault the
	// comparator misses fails the job.
	SelfCheck bool `json:"self_check,omitempty"`
	// FaultSeed seeds the self-check's fault selection (default 1).
	FaultSeed int64 `json:"fault_seed,omitempty"`
}

// OnlineIntervalInfo describes one characterized interval.
type OnlineIntervalInfo struct {
	Index  int    `json:"index"`
	Cycles int    `json:"cycles"`
	Golden string `json:"golden"` // hex MISR signature
}

// OnlineSelfCheck reports the deliberate-fault comparator check.
type OnlineSelfCheck struct {
	// Component and Bit identify the injected stuck-at style fault.
	Component string `json:"component"`
	Bit       int    `json:"bit"`
	// Caught is true when at least one interval signature mismatched
	// under the injected fault — the comparator works.
	Caught bool `json:"caught"`
	// MismatchedIntervals lists the interval indices that flagged it.
	MismatchedIntervals []int `json:"mismatched_intervals,omitempty"`
}

// OnlineResult is the online_burst result: the interval schedule's
// outcome counts plus the optional self-check report.
type OnlineResult struct {
	Intervals   int                  `json:"intervals"`
	Passed      int                  `json:"passed"`
	Mismatches  int                  `json:"mismatches"`
	Timeouts    int                  `json:"timeouts"`
	Preemptions int                  `json:"preemptions"`
	Slots       int                  `json:"slots"`
	BurstCycles int                  `json:"burst_cycles"`
	Schedule    []OnlineIntervalInfo `json:"schedule,omitempty"`
	SelfCheck   *OnlineSelfCheck     `json:"self_check,omitempty"`
}

// GaSpec configures a ga_search job: a deterministic, seeded genetic
// search over self-test program skeletons (instruction-slot choices
// over the generator vocabulary) plus LFSR seed, feedback polynomial
// and reseed schedule, with fault coverage per test cycle as fitness.
// The same seed always reproduces the same search, bit for bit, for
// any worker count and across coordinator restarts.
type GaSpec struct {
	// Population is the individuals per generation (default 12, cap 256).
	Population int `json:"population,omitempty"`
	// Generations is the number of generations bred (default 6, cap 512).
	Generations int `json:"generations,omitempty"`
	// Seed seeds the search's PRNG; every random draw — initial
	// population, selection, crossover, mutation — derives from it
	// (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Slots is the evolved instruction-slot count per genome
	// (default 12, cap 64).
	Slots int `json:"slots,omitempty"`
	// Iterations is the template-loop expansion count per fitness
	// evaluation (default 150).
	Iterations int `json:"iterations,omitempty"`
	// Elite is the number of top individuals copied unchanged into the
	// next generation (default 2).
	Elite int `json:"elite,omitempty"`
	// Tournament is the selection tournament size (default 3).
	Tournament int `json:"tournament,omitempty"`
	// MutationPct is the per-gene mutation probability in percent
	// (default 15).
	MutationPct int `json:"mutation_pct,omitempty"`
}

// GaGeneration is one completed generation's fitness summary.
type GaGeneration struct {
	Gen          int     `json:"gen"`
	BestFitness  float64 `json:"best_fitness"`
	MeanFitness  float64 `json:"mean_fitness"`
	BestCoverage float64 `json:"best_coverage"`
	BestCycles   int     `json:"best_cycles"`
}

// GaResult is the ga_search result: the fitness trajectory, the winning
// genome and its phenotype, and the evaluation economics.
type GaResult struct {
	Population int `json:"population"`
	// Generations is the per-generation trajectory, one entry per
	// generation in order.
	Generations []GaGeneration `json:"generations"`
	// BestGenome is the winning genome's canonical text encoding
	// (slots + LFSR seed/polynomial/reseed genes).
	BestGenome string `json:"best_genome"`
	// Best is the winning phenotype as a ready-to-submit stimulus
	// source: POST it back as a fault_sim job to reproduce the reported
	// coverage exactly.
	Best         VectorSource `json:"best"`
	BestFitness  float64      `json:"best_fitness"`
	BestCoverage float64      `json:"best_coverage"`
	BestCycles   int          `json:"best_cycles"`
	// Evaluations counts the fault simulations actually run; CacheHits
	// counts individuals whose phenotype repeated an already-evaluated
	// one and cost nothing.
	Evaluations int `json:"evaluations"`
	CacheHits   int `json:"cache_hits,omitempty"`
	// ResumedFrom is the number of generations fast-forwarded from the
	// journal after a coordinator restart (0 for an uninterrupted run).
	ResumedFrom int `json:"resumed_from,omitempty"`
}

// Validate rejects specs the executor could not run, so the server can
// fail submission instead of failing the job later. Unrecognized
// JobKind or VectorKind values wrap ErrUnknownKind (HTTP 422);
// kind-safety violations — a sub-spec on a kind it does not belong to —
// wrap ErrSpecMismatch (HTTP 422); every other violation is a plain
// validation error (HTTP 400).
//
// This is the one shared validator: the server calls it at submission,
// and the engine calls it again when replaying journaled submits and
// when adopting checkpointed jobs, so no path smuggles a mismatched
// spec past it.
func (s *JobSpec) Validate() error {
	if !s.Kind.Valid() {
		return fmt.Errorf("%w: job kind %q (want one of %v)", ErrUnknownKind, s.Kind, JobKinds())
	}
	// Kind-safety: each sub-spec belongs to exactly one kind; carrying
	// it on any other kind is a mismatch, not dead weight to ignore.
	for _, sub := range []struct {
		name string
		set  bool
		kind JobKind
	}{
		{"matrix", s.Matrix != nil, JobCampaignMatrix},
		{"online", s.Online != nil, JobOnlineBurst},
		{"ga", s.Ga != nil, JobGaSearch},
	} {
		if sub.set && s.Kind != sub.kind {
			return fmt.Errorf("%w: %s job carries the %q sub-spec (only %s jobs may)",
				ErrSpecMismatch, s.Kind, sub.name, sub.kind)
		}
	}
	switch s.Kind {
	case JobFaultSim, JobNDetect, JobExperiment:
		if err := validateVectorSource(s.Vectors, string(s.Kind)+" job"); err != nil {
			return err
		}
	case JobSeqATPG:
		if s.Frames < 0 || s.SampleEvery < 0 || s.MaxBacktracks < 0 {
			return fmt.Errorf("api: negative seq_atpg bounds")
		}
	case JobCampaignMatrix:
		if s.Matrix == nil || len(s.Matrix.Designs) == 0 || len(s.Matrix.Schemes) == 0 {
			return fmt.Errorf("api: campaign_matrix job needs matrix with designs and schemes")
		}
		seen := make(map[string]bool, len(s.Matrix.Designs))
		for _, d := range s.Matrix.Designs {
			if seen[d] {
				return fmt.Errorf("api: campaign_matrix lists design %q twice", d)
			}
			seen[d] = true
		}
		for i, v := range s.Matrix.Schemes {
			if err := validateVectorSource(v, fmt.Sprintf("campaign_matrix scheme %d", i)); err != nil {
				return err
			}
		}
	case JobOnlineBurst:
		// The interval scheduler drives the behavioral DSP core with a
		// self-test program: the stimulus must be a program source
		// (inline or the paper's). An empty Vectors defaults to the
		// paper's self-test program.
		switch s.Vectors.Kind {
		case "", VecSelfTest:
		case VecProgram:
			if err := validateVectorSource(s.Vectors, "online_burst job"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: online_burst vectors %q (want program or selftest)", ErrUnknownKind, s.Vectors.Kind)
		}
		if o := s.Online; o != nil {
			if o.Intervals < 0 || o.Iterations < 0 || o.MISRWidth < 0 ||
				o.TimeoutCycles < 0 || o.BudgetCycles < 0 {
				return fmt.Errorf("api: negative online_burst option")
			}
			if o.MISRWidth > 64 {
				return fmt.Errorf("api: online_burst misr_width %d > 64", o.MISRWidth)
			}
			switch o.Policy {
			case "", "continue", "restart":
			default:
				return fmt.Errorf("api: online_burst policy %q (want continue or restart)", o.Policy)
			}
		}
	case JobGaSearch:
		// The GA evolves its own stimulus; a vectors block has nothing
		// to configure and would silently be ignored — reject it.
		if !s.Vectors.isZero() {
			return fmt.Errorf("%w: ga_search evolves its own stimulus; vectors must be empty", ErrSpecMismatch)
		}
		if g := s.Ga; g != nil {
			if g.Population < 0 || g.Generations < 0 || g.Slots < 0 || g.Iterations < 0 ||
				g.Elite < 0 || g.Tournament < 0 || g.MutationPct < 0 {
				return fmt.Errorf("api: negative ga_search option")
			}
			if g.Population > 256 {
				return fmt.Errorf("api: ga_search population %d > 256", g.Population)
			}
			if g.Generations > 512 {
				return fmt.Errorf("api: ga_search generations %d > 512", g.Generations)
			}
			if g.Slots > 64 {
				return fmt.Errorf("api: ga_search slots %d > 64", g.Slots)
			}
			if g.MutationPct > 100 {
				return fmt.Errorf("api: ga_search mutation_pct %d > 100", g.MutationPct)
			}
			if g.Population > 0 && g.Elite > g.Population {
				return fmt.Errorf("api: ga_search elite %d > population %d", g.Elite, g.Population)
			}
		}
	}
	if s.Workers < 0 || s.NDetect < 0 || s.SegmentLen < 0 || s.DeadlineSec < 0 {
		return fmt.Errorf("api: negative option")
	}
	return nil
}

// isZero reports whether the source is entirely unset (VectorSource
// holds a slice, so it cannot be compared against a zero literal).
func (v VectorSource) isZero() bool {
	return v.Kind == "" && v.Count == 0 && v.Seed == 0 && v.Program == "" &&
		v.Iterations == 0 && v.Seed2 == 0 && v.Taps == 0 && v.ReseedEvery == 0 && len(v.Reseeds) == 0
}

// validateVectorSource checks one stimulus source; what names it in
// error messages ("fault_sim job", "campaign_matrix scheme 1").
func validateVectorSource(v VectorSource, what string) error {
	switch v.Kind {
	case VecBIST:
		if v.Count <= 0 {
			return fmt.Errorf("api: %s with bist vectors needs count > 0", what)
		}
	case VecProgram:
		if v.Program == "" {
			return fmt.Errorf("api: %s with program vectors needs source", what)
		}
		if _, err := isa.Assemble(v.Program); err != nil {
			return fmt.Errorf("api: bad program: %w", err)
		}
	case VecSelfTest:
		// The committed paper program; all fields optional.
	default:
		return fmt.Errorf("%w: vector source %q (want one of %v)", ErrUnknownKind, v.Kind, VectorKinds())
	}
	if v.Taps>>16 != 0 {
		return fmt.Errorf("api: %s taps %#x exceeds the 16-bit LFSR1 mask", what, v.Taps)
	}
	if v.ReseedEvery < 0 {
		return fmt.Errorf("api: %s negative reseed_every", what)
	}
	if v.ReseedEvery > 0 && len(v.Reseeds) == 0 {
		return fmt.Errorf("api: %s reseed_every without reseeds", what)
	}
	if v.ReseedEvery == 0 && len(v.Reseeds) > 0 {
		return fmt.Errorf("api: %s reseeds without reseed_every", what)
	}
	return nil
}

// JobState is a job's lifecycle position.
type JobState string

// Lifecycle: queued → running → completed | failed. A forced drain or a
// recoverable worker panic moves a running job back to queued so a
// recovery re-runs it. The full lifecycle, including how each
// state answers GET /v1/jobs/{id}/result, is documented in docs/API.md.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
)

// Progress is a live campaign snapshot, updated by the executor at
// segment boundaries (fault simulation), per targeted fault (ATPG), or
// per worker heartbeat (distributed campaigns).
type Progress struct {
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	Detected  int     `json:"detected,omitempty"`
	Remaining int     `json:"remaining,omitempty"`
	Coverage  float64 `json:"coverage,omitempty"`
}

// JobResult is a completed campaign's headline numbers.
type JobResult struct {
	Faults   int     `json:"faults,omitempty"`
	Detected int     `json:"detected,omitempty"`
	Cycles   int     `json:"cycles,omitempty"`
	Coverage float64 `json:"coverage"`
	// NDetect results.
	NDetect         int     `json:"n_detect,omitempty"`
	NDetectCoverage float64 `json:"n_detect_coverage,omitempty"`
	// Sequential-ATPG results.
	TestsFound int `json:"tests_found,omitempty"`
	Untestable int `json:"untestable,omitempty"`
	Aborted    int `json:"aborted,omitempty"`
	// Sub holds named sub-campaign results for experiment jobs.
	Sub map[string]*JobResult `json:"sub,omitempty"`
	// Matrix holds the per-cell table for campaign_matrix jobs, in
	// designs-major, schemes-minor order. The headline Faults/Detected/
	// Cycles fields sum over the cells; Coverage is the summed ratio.
	Matrix []MatrixCell `json:"matrix,omitempty"`
	// Online holds the interval-schedule outcome for online_burst jobs.
	Online *OnlineResult `json:"online,omitempty"`
	// Ga holds the search trajectory and winner for ga_search jobs; the
	// headline Faults/Detected/Cycles/Coverage fields report the winning
	// individual's campaign.
	Ga *GaResult `json:"ga,omitempty"`
	// Seconds is the job's wall time.
	Seconds float64 `json:"seconds,omitempty"`
}

// DistState is the distribution snapshot of a coordinator job, served
// with a running job so a client or an operator can see how far the fleet
// has carried a campaign: how many work units the fault list was split
// into, which were already merged, and each unit's spent attempt count.
// Unit results themselves are not persisted — a restored job re-plans
// its units and the fleet re-runs them (deterministically, so the
// re-run merges to the identical result).
type DistState struct {
	Units     int   `json:"units"`
	Completed []int `json:"completed,omitempty"`
	Attempts  []int `json:"attempts,omitempty"`
}

// Job is one queue entry as served by GET /v1/jobs/{id}.
type Job struct {
	ID       string     `json:"id"`
	Spec     JobSpec    `json:"spec"`
	State    JobState   `json:"state"`
	Attempts int        `json:"attempts,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Progress Progress   `json:"progress"`
	Result   *JobResult `json:"result,omitempty"`
	// Dist is the distribution snapshot of a running coordinator job;
	// nil for locally executed jobs.
	Dist *DistState `json:"dist,omitempty"`
}

// JobList is the GET /v1/jobs response: one page of jobs in stable
// submission order. The listing paginates with a cursor: pass
// ?limit=N&after=<job id> to resume, plus optional ?kind= and ?state=
// filters.
type JobList struct {
	Jobs []Job `json:"jobs"`
	// NextAfter is the cursor for the next page: the last job ID on
	// this page, present only when more jobs match beyond it. Pass it
	// back as ?after= to continue.
	NextAfter string `json:"next_after,omitempty"`
}

// Health is the GET /v1/healthz response: liveness plus queue occupancy
// by state, and (coordinator mode) lease-pool occupancy.
type Health struct {
	Status string           `json:"status"`
	Jobs   map[JobState]int `json:"jobs"`
	Leases *LeaseCounts     `json:"leases,omitempty"`
}

// Meta is the GET /v1/meta document: the service's identity, the wire
// versions it speaks, and the capabilities behind them. A worker checks
// Versions before joining a coordinator.
type Meta struct {
	Service     string       `json:"service"`
	APIVersion  string       `json:"api_version"`
	Versions    []string     `json:"versions"`
	JobKinds    []JobKind    `json:"job_kinds"`
	VectorKinds []VectorKind `json:"vector_kinds"`
	// Capabilities names the optional surfaces this instance serves:
	// "jobs", "metrics", "designs" and "online" always; "leases" when
	// running as a coordinator; "events" when the SSE job-event stream
	// is wired; "journal" when the write-ahead job journal is enabled
	// (submits survive kill -9).
	Capabilities []string `json:"capabilities"`
	// Designs lists the bundled design IDs this instance resolves (the
	// DSP core and every embedded .bench netlist). Family designs are a
	// parameter space and are not enumerated here.
	Designs []string `json:"designs,omitempty"`
	// Obs is a point-in-time health snapshot of the serving process.
	Obs *MetaObs `json:"obs,omitempty"`
}

// MetaObs is the observability summary embedded in GET /v1/meta — the
// three numbers a fleet dashboard wants before scraping full metrics.
type MetaObs struct {
	// GateEvals is the process-lifetime faultsim.gate_evals counter.
	GateEvals int64 `json:"gate_evals"`
	// VectorsPerSec is the most recent simulation throughput.
	VectorsPerSec float64 `json:"vectors_per_sec"`
	// HeartbeatP99Millis is the 99th-percentile gap between worker
	// heartbeats observed by this coordinator's lease pool (0 when no
	// heartbeats have been seen).
	HeartbeatP99Millis float64 `json:"heartbeat_p99_ms"`
}
