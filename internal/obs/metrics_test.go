package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false,
	"rewrite testdata/metrics.golden from current exposition output")

// buildExpositionRegistry populates a registry with one of everything
// the exposition writer renders: a labeled counter family, a gauge, a
// histogram with two children, escaping-hostile label values and help
// text, a flat legacy counter, and a name needing sanitization.
func buildExpositionRegistry() *Registry {
	r := NewRegistry()

	events := r.CounterFamily("sbst_lease_events_total", "Lease lifecycle events, by event.", "event")
	events.Counter("granted").Add(7)
	events.Counter("expired").Add(2)

	depth := r.GaugeFamily("sbst_queue_jobs", "Jobs in the queue, by state.", "state")
	depth.Gauge("queued").Set(3)
	depth.Gauge("running").Set(1.5)

	hb := r.HistogramFamily("sbst_heartbeat_gap_seconds",
		"Observed gap between worker heartbeats.", []float64{0.1, 0.5, 2.5}, "job")
	h := hb.Histogram("job-0001")
	for _, v := range []float64{0.05, 0.3, 0.3, 1.0, 9.9} {
		h.Observe(v)
	}
	hb.Histogram("job-0002").Observe(0.2)

	esc := r.GaugeFamily("sbst_escape_check", `Help with backslash \ and
newline.`, "path")
	esc.Gauge(`C:\tmp "quoted"` + "\nline2").Set(1)

	r.Counter("faultsim.gate_evals").Add(123456)
	r.Counter("9starts.with-digit").Add(1)
	return r
}

// TestPrometheusExpositionGolden pins the exact exposition bytes:
// stable family-then-flat ordering, label sorting, HELP/TYPE lines,
// histogram cumulative buckets, escaping, and name sanitization.
func TestPrometheusExpositionGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildExpositionRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateMetricsGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-metrics-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The golden output must also satisfy our own lint.
	if problems := LintExposition(got); len(problems) != 0 {
		t.Errorf("golden exposition fails lint: %v", problems)
	}
}

// TestExpositionLint is both the lint's own coverage and the CI
// exposition-format check: the live default registry (whatever the
// rest of the test binary registered) must produce lintable output.
func TestExpositionLint(t *testing.T) {
	var sb strings.Builder
	if err := Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(sb.String()); len(problems) != 0 {
		t.Errorf("default registry exposition fails lint: %v", problems)
	}

	bad := "# TYPE x wat\nx 1\n" + // unknown type
		"y{label=\"unterminated} 2\n" + // malformed sample
		"z 1\n# TYPE z counter\n" + // TYPE after samples
		"# TYPE w counter\n# TYPE w counter\n" // typed twice
	problems := LintExposition(bad)
	if len(problems) != 4 {
		t.Errorf("lint found %d problems in known-bad input, want 4: %v", len(problems), problems)
	}
}

// TestFamilyNilSafety: arity mismatches and wrong-type lookups return
// nil handles whose methods are no-ops — telemetry must never panic.
func TestFamilyNilSafety(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("c_total", "help", "a", "b")
	if got := f.Counter("only-one"); got != nil {
		t.Errorf("arity mismatch returned %v, want nil", got)
	}
	f.Counter("only-one").Add(1)     // no-op, must not panic
	f.Gauge("x", "y").Set(1)         // wrong type: nil gauge
	f.Histogram("x", "y").Observe(1) // wrong type: nil histogram
	if got := f.Counter("x", "y").Load(); got != 0 {
		t.Errorf("fresh counter = %d, want 0", got)
	}
	// Same-name re-registration returns the original family.
	if r.CounterFamily("c_total", "other help") != f {
		t.Error("re-registration did not return the existing family")
	}
}

// TestHistogramQuantile sanity-checks the interpolated estimate.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all samples in (1,2]
	}
	p50 := h.Quantile(0.5)
	if p50 <= 1 || p50 > 2 {
		t.Errorf("p50 = %v, want within owning bucket (1,2]", p50)
	}
	h.Observe(100) // overflow bucket clamps to the top bound
	if got := h.Quantile(1.0); got != 8 {
		t.Errorf("p100 with overflow sample = %v, want clamp to 8", got)
	}
}

// TestSetArmed: disarmed counters and histograms drop mutations.
func TestSetArmed(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("armed.check")
	h := r.HistogramFamily("armed_hist", "h", []float64{1}).Histogram()
	SetArmed(false)
	c.Add(5)
	h.Observe(0.5)
	SetArmed(true)
	if got := c.Load(); got != 0 {
		t.Errorf("disarmed counter advanced to %d", got)
	}
	if got := h.Count(); got != 0 {
		t.Errorf("disarmed histogram recorded %d samples", got)
	}
	c.Add(5)
	h.Observe(0.5)
	if c.Load() != 5 || h.Count() != 1 {
		t.Errorf("re-armed mutation lost: counter=%d hist=%d", c.Load(), h.Count())
	}
}

// TestRegistryConcurrentShards hammers one registry from many
// goroutines — the -race test for the labeled family path: concurrent
// child creation, counter adds, gauge CAS adds, and histogram observes
// interleaved with exposition renders and snapshots.
func TestRegistryConcurrentShards(t *testing.T) {
	r := NewRegistry()
	const shards, iters = 16, 500
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			label := string(rune('a' + shard%4))
			ctr := r.CounterFamily("shard_evals_total", "evals", "shard").Counter(label)
			g := r.GaugeFamily("shard_rate", "rate", "shard").Gauge(label)
			h := r.HistogramFamily("shard_seconds", "time", []float64{0.1, 1}, "shard").Histogram(label)
			for i := 0; i < iters; i++ {
				ctr.Add(1)
				g.Set(float64(i))
				h.Observe(float64(i%3) * 0.2)
				r.Counter("shard.flat").Add(1)
			}
		}(s)
	}
	// Concurrent readers: exposition and snapshot while shards mutate.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				r.Snapshot()
			}
		}()
	}
	wg.Wait()

	total := int64(0)
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.CounterFamily("shard_evals_total", "evals", "shard").Counter(l).Load()
	}
	if want := int64(shards * iters); total != want {
		t.Errorf("labeled counter total = %d, want %d", total, want)
	}
	if got := r.Counter("shard.flat").Load(); got != int64(shards*iters) {
		t.Errorf("flat counter = %d, want %d", got, shards*iters)
	}
	hTotal := int64(0)
	for _, l := range []string{"a", "b", "c", "d"} {
		hTotal += r.HistogramFamily("shard_seconds", "time", nil, "shard").Histogram(l).Count()
	}
	if want := int64(shards * iters); hTotal != want {
		t.Errorf("histogram sample total = %d, want %d", hTotal, want)
	}
}
