// Command experiments regenerates every table and figure of the paper's
// evaluation, printing paper-reported vs measured values in the format
// EXPERIMENTS.md records.
//
//	E1  Table 1   metrics table, simple datapath
//	E2  Table 2   metrics table, DSP core
//	E3  Table 3   Phase-1 covering result
//	E4  Figure 7  generated self-test program
//	E5  Sec 3.3   fault coverage of the base program (paper: 98.14% FC,
//	              98.33% TC at 6000 iterations = 204,000 vectors)
//	E6  Sec 3.4   shifter control-bit constraint study
//	E7  Sec 3.4/5 enhanced program: coverage and the vector count that
//	              matches the base program's full-run detection
//	              (paper: 27,346 vs 204,000)
//	E8  Sec 3.5   sequential ATPG baseline (paper: 8.51%)
//	E9  Sec 3.5   pseudorandom BIST baseline (all 131,071 LFSR vectors)
//
// -quick shrinks every workload for a fast smoke run; the defaults
// reproduce paper-scale settings. -metrics writes a consolidated
// machine-readable JSON file (per-experiment headline numbers, wall
// times and the global counter registry); -trace/-v/-cpuprofile are the
// shared observability bundle.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

type runContext struct {
	quick bool
	out   *os.File
	sink  obs.Sink
	// ctx carries the -deadline bound into every fault simulation; an
	// expired deadline stops the current campaign at the next segment
	// boundary and the experiment reports partial numbers.
	ctx context.Context
	// cur is the id of the experiment currently running; metric()
	// records headline numbers under it for the -metrics JSON report.
	cur     string
	metrics map[string]map[string]any
	// gaArtifact is E13's -ga-artifact output path ("" = don't write).
	gaArtifact string
}

func (rc *runContext) printf(format string, args ...any) {
	fmt.Printf(format, args...)
	if rc.out != nil {
		fmt.Fprintf(rc.out, format, args...)
	}
}

// metric records one headline number for the running experiment.
func (rc *runContext) metric(key string, value any) {
	if rc.metrics == nil || rc.cur == "" {
		return
	}
	m := rc.metrics[rc.cur]
	if m == nil {
		m = map[string]any{}
		rc.metrics[rc.cur] = m
	}
	m[key] = value
}

type experiment struct {
	id    string
	title string
	run   func(rc *runContext)
}

func main() {
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	runSel := flag.String("run", "", "comma-separated experiment ids (e.g. E1,E5); empty = all")
	outPath := flag.String("out", "", "also append output to this file")
	metricsPath := flag.String("metrics", "", "write consolidated per-experiment metrics JSON to this file")
	gaArtifact := flag.String("ga-artifact", "", "write E13's self-describing GA-comparison JSON artifact to this file")
	deadline := flag.Duration("deadline", 0, "overall deadline for the whole run; expiring simulations stop at the next segment boundary and report partial numbers (0 = none)")
	obsCfg := obs.Flags()
	chaosCfg := chaos.Flags()
	flag.Parse()

	rt := obsCfg.MustStart()
	defer rt.Close()
	if err := chaosCfg.Arm(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	rc := &runContext{quick: *quick, sink: rt.Sink(), ctx: ctx,
		metrics: map[string]map[string]any{}, gaArtifact: *gaArtifact}
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		rc.out = f
	}

	experiments := []experiment{
		{"E1", "Table 1 — metrics table, simple datapath", runE1},
		{"E2", "Table 2 — metrics table, DSP core", runE2},
		{"E3", "Table 3 — Phase-1 covering", runE3},
		{"E4", "Figure 7 — generated self-test program", runE4},
		{"E5", "Sec 3.3 — base program fault coverage", runE5},
		{"E6", "Sec 3.4 — shifter control-bit constraints", runE6},
		{"E7", "Sec 3.4/3.5 — enhanced program", runE7},
		{"E8", "Sec 3.5 — sequential ATPG baseline", runE8},
		{"E9", "Sec 3.5 — pseudorandom BIST baseline", runE9},
		{"E10", "Sec 1 [4] — instruction-randomization (IRST) baseline", runE10},
		{"E11", "Sec 2.3 — LFSR2 register-rotation ablation", runE11},
		{"E12", "extension — at-speed transition-fault coverage", runE12},
		{"E13", "extension — evolved program (ga_search) vs Phase 1/2 vs raw BIST", runE13},
	}

	want := map[string]bool{}
	if *runSel != "" {
		for _, id := range strings.Split(*runSel, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		rc.printf("\n================ %s: %s ================\n", e.id, e.title)
		rc.cur = e.id
		span := obs.NewSpan(rc.sink, "experiment/"+e.id)
		start := time.Now()
		e.run(rc)
		dur := time.Since(start)
		span.End()
		rc.metric("seconds", dur.Seconds())
		rc.cur = ""
		rc.printf("[%s done in %v]\n", e.id, dur.Round(time.Millisecond))
	}

	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, rc); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *metricsPath)
	}
}

// writeMetrics emits the consolidated machine-readable report: one
// object per experiment run (headline numbers + wall time) plus a
// snapshot of the global counter registry (simulator vectors, PODEM
// backtracks, LFSR reseeds, ...).
func writeMetrics(path string, rc *runContext) error {
	report := struct {
		Quick       bool                      `json:"quick"`
		Experiments map[string]map[string]any `json:"experiments"`
		Counters    map[string]int64          `json:"counters"`
	}{
		Quick:       rc.quick,
		Experiments: rc.metrics,
		Counters:    obs.Default().Snapshot(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
