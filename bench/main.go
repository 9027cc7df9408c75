// Command bench is the repository's benchmark: one harness, seven named
// workloads, from one gate evaluation to a /v1 round-trip. Every layer is
// measured from outside, by timing calls into public functions and HTTP
// routes. See README.md for the workloads, the metrics and why each one
// exists.
//
//	go run . -workload all              # end-to-end metrics, tracing off
//	go run . -workload all -trace 1     # per-layer metrics + span files
//	go run . -compare results/a.json results/b.json
//
// Each workload runs in its own process (`all` re-executes the binary
// once per workload) so caches and peak memory do not leak between
// workloads. The last line of a single-workload run's standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// processStart anchors setup_s: package initialisation runs before
// main, so this is as close to process start as the program can see.
var processStart = time.Now()

// metricDef describes one metric; bound is the share by which an
// end-to-end metric may worsen before it counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, on every workload.
// BENCHMARK.json carries the same table; a test keeps the two equal.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// A workload is one set of inputs the benchmark runs. opName and
// workName say what op_p50_ms and work_per_s mean on it, under the name
// the issue that defined the benchmark gave that figure.
type workload struct {
	name     string
	why      string
	opName   string
	workName string
	run      func(e *env)
}

var workloads = []workload{
	{"kernel_table1", "Table-1-scale LFSR campaign on dsp: logic+fault do all the work, nothing else runs",
		"one engine.Simulate, Workers=1, cold", "sim_vectors_per_s (vectors/s)", runKernelTable1},
	{"kernel_zoo", "same kernel on a combinational circuit, a small family core and instruction-shaped stimulus",
		"one pass over the three members", "sim_vectors_per_s (vectors/s, geometric mean of members)", runKernelZoo},
	{"paper_flow", "the paper's method end to end: metrics table, program generation, expansion, fault grading",
		"flow_s: one generate, expand, simulate", "graded self-test cycles per second of flow", runPaperFlow},
	{"atpg_podem", "PODEM find-a-test and constrained prove-untestable paths; the kernel does nothing here",
		"constraint_study_s: one constrained shifter study", "podem_faults_per_s (faults/s)", runAtpgPodem},
	{"service_small_jobs", "1 ms simulations through /v1: JSON, HTTP, queue, journal fsync, SSE and checkpoint dominate",
		"job_latency_p50_ms: submit sent to terminal SSE frame", "jobs_per_s (jobs/s)", runServiceSmallJobs},
	{"fleet_table1", "Table-1 campaign sliced into leased units on a two-worker fleet, fresh then identical spec",
		"job_latency_p50_ms over fresh-seed jobs", "jobs per second, fresh and repeated", runFleetTable1},
	{"fleet_ga", "ga_search on the fleet: one-unit registrations with a barrier per generation",
		"one ga_search job, submit to result", "ga_evals_per_s (evaluations/s)", runFleetGA},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one workload run: its inputs, the clock, and what it found.
type env struct {
	w       workload
	seed    int64
	seconds float64
	tr      *tracer // nil unless the run is traced
	outDir  string
	golden  map[string]string // this workload's pinned statistics for seed 1

	attempted int
	failed    int
	mismatch  []string           // first few correctness failures, for the human reader
	stats     map[string]string  // simulated statistics observed (what golden.json pins)
	samples   map[string]int     // sample count behind each timing
	values    map[string]float64 // every metric measured, end-to-end and per-layer
}

func (e *env) traced() bool { return e.tr != nil }

// setup runs a workload's set-up — design builds, program generation,
// oracle runs, server start, the warm-up op — and records setup_s: the
// time from process start to the first timed op. A set-up of a few
// milliseconds is run several times and its median taken, because one
// sample of it is mostly noise; each run must leave behind only what
// the last one built.
func (e *env) setup(times int, f func()) {
	preamble := time.Since(processStart)
	took := make([]float64, times)
	for i := range took {
		e.values["designs.build_ms"] = 0
		start := time.Now()
		f()
		took[i] = time.Since(start).Seconds()
	}
	e.setN("setup_s", preamble.Seconds()+median(took), times)
}

// deadline is when the timed loop of a time-boxed workload stops
// starting new ops.
func (e *env) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(e.seconds * float64(time.Second)))
}

// more reports whether a timed loop that has run n ops runs another:
// until its deadline, and at least atLeast times so that there is a
// median to take. A run shorter than a second is a smoke test and makes
// do with one op.
func (e *env) more(n, atLeast int, deadline time.Time) bool {
	if e.seconds < 1 {
		atLeast = 1
	}
	return n < atLeast || time.Now().Before(deadline)
}

func (e *env) set(name string, v float64) { e.values[name] = v }

func (e *env) setN(name string, v float64, n int) {
	e.values[name] = v
	e.samples[name] = n
}

// op counts one timed operation; a failed or wrong one counts against
// the number attempted.
func (e *env) op(ok bool) {
	e.attempted++
	if !ok {
		e.failed++
	}
}

// check records a correctness failure with its reason.
func (e *env) check(ok bool, format string, args ...any) bool {
	if !ok && len(e.mismatch) < 20 {
		e.mismatch = append(e.mismatch, fmt.Sprintf(format, args...))
	}
	return ok
}

// stat records a simulated statistic whose inputs the seed shapes and,
// on seed 1, compares it with the value golden.json pins. The simulator
// is deterministic, so these repeat exactly: they are checked, not
// measured.
func (e *env) stat(key string, v any) bool { return e.pin(key, v, e.seed == 1) }

// statAnySeed is stat for a statistic the seed does not change.
func (e *env) statAnySeed(key string, v any) bool { return e.pin(key, v, true) }

func (e *env) pin(key string, v any, compare bool) bool {
	got := fmt.Sprint(v)
	e.stats[key] = got
	want, pinned := e.golden[key]
	if !compare || !pinned {
		return true
	}
	return e.check(got == want, "golden %s: got %s, want %s", key, got, want)
}

func (e *env) fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %s: %v\n", e.w.name, err)
	os.Exit(1)
}

// derive turns the run seed into an independent non-zero seed for one
// input stream (an LFSR, a job, a GA): splitmix64 of seed and stream,
// kept to 31 bits so it survives every int64/uint64/JSON hop.
func (e *env) derive(stream uint64) uint64 {
	z := uint64(e.seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z&0x7FFFFFFE | 1
}

//go:embed golden.json
var goldenJSON []byte

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "derives every LFSR seed, job seed, GA seed and sample offset")
	seconds := flag.Float64("seconds", 8, "how long the timed part of the run measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	outDir := flag.String("out", "results", "directory for result files, span files and scratch state")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *outDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	e, err := runWorkload(w, *seed, *seconds, *trace == 1, *outDir)
	if err == nil {
		err = report(os.Stdout, e, procs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if e.failed > 0 || len(e.mismatch) > 0 {
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process and returns what it
// measured and checked.
func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	e := &env{
		w: w, seed: seed, seconds: seconds, outDir: outDir, golden: golden[w.name],
		stats: map[string]string{}, samples: map[string]int{}, values: map[string]float64{},
	}
	if traced {
		e.tr = newTracer(processStart)
	}
	w.run(e)
	e.set("proc.peak_rss_mb", peakRSSMB())
	e.set("trace.op_p50_ms", e.values["op_p50_ms"])
	e.set("trace.spans", float64(e.tr.count()))
	return e, nil
}

// runAll runs every workload in a process of its own, one after the
// other, and reports the worst exit code.
func runAll(seed int64, seconds float64, trace int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	worst := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			worst = 1
		}
	}
	return worst
}

func resultPath(outDir, workload string, traced bool) string {
	if traced {
		return filepath.Join(outDir, workload+".trace.json")
	}
	return filepath.Join(outDir, workload+".json")
}
