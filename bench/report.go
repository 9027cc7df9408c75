package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// perLayer is every single-layer metric, prefixed by the module it
// measures. A traced run prints all of them; one that reads 0 on a
// workload is a layer that workload does not exercise. BENCHMARK.json
// carries the same table; a test keeps the two equal.
var perLayer = []metricDef{
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "designs.build_ms", Unit: "ms", Better: "lower"},

	{Name: "logic.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "logic.gate_evals_per_cycle", Unit: "count", Better: "lower"},
	{Name: "fault.good_trace_fill_ms", Unit: "ms", Better: "lower"},
	{Name: "fault.lane_sweep_s", Unit: "s", Better: "lower"},
	{Name: "fault.lane_words", Unit: "count", Better: "higher"},
	{Name: "fault.reference_vectors_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fault.zoo_c880_vectors_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fault.zoo_fam_vectors_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fault.zoo_selftest_vectors_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fault.zoo_c880_lane_words", Unit: "count", Better: "higher"},
	{Name: "fault.zoo_fam_lane_words", Unit: "count", Better: "higher"},
	{Name: "fault.zoo_selftest_lane_words", Unit: "count", Better: "higher"},
	{Name: "engine.sharded_vectors_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "engine.shadow_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "metrics.engine_s", Unit: "s", Better: "lower"},
	{Name: "selftest.generate_s", Unit: "s", Better: "lower"},
	{Name: "selftest.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "selftest.program_len", Unit: "count", Better: "lower"},
	{Name: "engine.flow_simulate_s", Unit: "s", Better: "lower"},

	{Name: "atpg.ms_per_fault_p50", Unit: "ms", Better: "lower"},
	{Name: "atpg.ms_per_fault_tail", Unit: "ms", Better: "lower"},
	{Name: "atpg.tail_percentile", Unit: "%", Better: "higher"},
	{Name: "atpg.backtracks_per_fault", Unit: "count", Better: "lower"},
	{Name: "atpg.detected", Unit: "count", Better: "higher"},
	{Name: "atpg.untestable", Unit: "count", Better: "lower"},
	{Name: "atpg.aborted", Unit: "count", Better: "lower"},
	{Name: "atpg.study_ban11_s", Unit: "s", Better: "lower"},
	{Name: "atpg.study_aborted", Unit: "count", Better: "lower"},

	{Name: "engine.journal_append_sync_us", Unit: "us", Better: "lower"},
	{Name: "engine.journal_append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "engine.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "engine.checkpoint_write_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.submit_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.delivery_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.merge_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "service.jobs", Unit: "count", Better: "higher"},
	{Name: "service.job_latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "service.tail_percentile", Unit: "%", Better: "higher"},
	{Name: "service.latency_first_quarter_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.latency_last_quarter_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "fleet.repeat_job_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.distribution_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "lease.acquire_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "lease.upload_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "lease.upload_bytes", Unit: "bytes", Better: "lower"},
	{Name: "lease.heartbeats", Unit: "count", Better: "lower"},
	{Name: "lease.empty_poll_ratio", Unit: "ratio", Better: "lower"},
	{Name: "worker.unit_exec_s", Unit: "s", Better: "lower"},
	{Name: "artifacts.hits", Unit: "count", Better: "higher"},
	{Name: "artifacts.misses", Unit: "count", Better: "lower"},
	{Name: "evolve.evaluations", Unit: "count", Better: "lower"},
	{Name: "evolve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "evolve.generation_s", Unit: "s", Better: "lower"},
}

// result is the self-describing file each run leaves in the results
// directory, and the input of -compare.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Traced     bool              `json:"traced"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	CPUModel   string            `json:"cpu_model"`
	StateFS    string            `json:"state_dir_fs"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Meaning    map[string]string `json:"meaning"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Samples    map[string]int    `json:"samples"`
	Statistics map[string]string `json:"statistics"`
}

// report prints every metric of the run by name with its unit, writes
// the result file (and the span file of a traced run), and ends with
// the one-line JSON object a driver reads.
func report(out io.Writer, e *env, procs int) error {
	defs := endToEnd
	if e.traced() {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{Value: e.values[d.Name], Unit: d.Unit}
	}
	res := result{
		Workload: e.w.name, Why: e.w.why, Traced: e.traced(),
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: procs, NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), StateFS: fsType(e.outDir), Seed: e.seed, Seconds: e.seconds,
		Meaning: map[string]string{"op_p50_ms": e.w.opName, "work_per_s": e.w.workName},
		Correct: e.failed == 0 && len(e.mismatch) == 0, Attempted: e.attempted, Failed: e.failed,
		Mismatches: e.mismatch, Metrics: metrics, Samples: e.samples, Statistics: e.stats,
	}

	fmt.Fprintf(out, "== %s (seed %d, %gs, GOMAXPROCS %d, trace %v)\n", e.w.name, e.seed, e.seconds, procs, e.traced())
	for _, d := range defs {
		line := fmt.Sprintf("%-40s %14.4f %-6s", d.Name, metrics[d.Name].Value, d.Unit)
		if n, ok := e.samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		switch d.Name {
		case "op_p50_ms":
			line += "  " + e.w.opName
		case "work_per_s":
			line += "  " + e.w.workName
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	if e.traced() {
		if pct, ok := traceOverhead(e); ok {
			fmt.Fprintf(out, "%-40s %14.4f %%      traced vs untraced op_p50_ms\n", "trace_overhead_pct", pct)
		}
		path := filepath.Join(e.outDir, e.w.name+".trace.ndjson")
		if err := e.tr.write(path); err != nil {
			return err
		}
	}
	for _, m := range e.mismatch {
		fmt.Fprintln(out, "WRONG:", m)
	}
	fmt.Fprintf(out, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(e.outDir, e.w.name, e.traced()), append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// traceOverhead compares the traced run's median op time with the
// untraced run of the same workload, seed and length, if its result
// file is there.
func traceOverhead(e *env) (float64, bool) {
	base, err := readResult(resultPath(e.outDir, e.w.name, false))
	if err != nil || base.Seed != e.seed || base.Seconds != e.seconds {
		return 0, false
	}
	untraced := base.Metrics["op_p50_ms"].Value
	if untraced == 0 {
		return 0, false
	}
	return 100 * (e.values["op_p50_ms"] - untraced) / untraced, true
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much worse b is than a as a share of a, in the
// direction the metric counts as worse; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints, for each end-to-end metric, how much worse B
// is than A against the metric's bound, and reports whether every one
// is inside its bound and B is correct.
func compareResults(out io.Writer, a, b *result) bool {
	ok := true
	if a.Workload != b.Workload || a.Traced || b.Traced {
		fmt.Fprintf(out, "cannot compare: %s (traced %v) vs %s (traced %v)\n", a.Workload, a.Traced, b.Workload, b.Traced)
		return false
	}
	fmt.Fprintf(out, "%s: B against A\n", a.Workload)
	for _, d := range endToEnd {
		av, bv := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		w := worseBy(d, av, bv)
		verdict := "ok"
		if w > d.Bound {
			verdict = "OUTSIDE"
			ok = false
		}
		fmt.Fprintf(out, "  %-12s A=%-14.4f B=%-14.4f %-4s worse by %+7.2f%%  bound %4.1f%%  %s\n",
			d.Name, av, bv, d.Unit, 100*w, 100*d.Bound, verdict)
	}
	if !b.Correct || b.Failed > 0 {
		fmt.Fprintf(out, "  B is not correct: %d of %d failed\n", b.Failed, b.Attempted)
		ok = false
	}
	return ok
}

// compareFiles is -compare: exit code 0 when B is within every bound of
// A, 1 when it is not, 2 when a file cannot be read.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "bench:", errors.Join(errA, errB))
		return 2
	}
	if compareResults(out, a, b) {
		return 0
	}
	return 1
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem under dir: journal fsync and checkpoint
// rename cost what that filesystem makes them cost.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (VmHWM, in kB).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(string(fields[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}
