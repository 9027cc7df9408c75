package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metrics.go promotes the registry from a flat counter table to typed
// metric families — counters, gauges and fixed-bucket histograms, each
// optionally labeled — with a Prometheus text-format exposition writer
// (format 0.0.4). The flat Counter namespace is unchanged and still
// exposed (as untyped samples), so the ~40 existing instrumentation
// sites keep working; new fleet-level metrics register families.
//
// The same nil-safety and hot-path discipline as the rest of the
// package applies: family children are cached handles (look them up
// once in a package variable, not per iteration), a nil child is a
// no-op, and SetArmed(false) turns every Add/Observe into a single
// atomic load so benchmarks can price the instrumentation itself.

// MetricType is a family's Prometheus type.
type MetricType string

// The family types the exposition writer understands.
const (
	MetricCounter   MetricType = "counter"
	MetricGauge     MetricType = "gauge"
	MetricHistogram MetricType = "histogram"
)

// DefBuckets are the default latency histogram bounds (seconds),
// spanning sub-millisecond heartbeats to multi-second stalls.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// disarmed gates Counter.Add and Histogram.Observe process-wide. The
// zero value (armed) is the default; the disarmed benchmark variant in
// internal/engine flips it to measure instrumentation overhead.
var disarmed atomic.Bool

// SetArmed enables (true, the default) or disables metric mutation.
// Disarmed, Counter.Add and Histogram.Observe return after one atomic
// load — the cost a hypothetical compiled-out build would still pay.
func SetArmed(on bool) { disarmed.Store(!on) }

// Gauge is a float64 gauge handle. All methods are nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores an absolute value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram handle: per-bucket atomic
// counts plus a running sum, rendered in Prometheus cumulative form.
// All methods are nil-safe.
type Histogram struct {
	bounds []float64      // upper bounds, ascending, no +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || disarmed.Load() {
		return
	}
	// First bound >= v: Prometheus le semantics (bucket i counts v <= bound i).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the owning bucket — the usual fixed-bucket
// estimate, exact enough for a p99 health figure. Returns 0 on an
// empty histogram; samples in the +Inf overflow bucket clamp to the
// highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if float64(cum+c) < target {
			cum += c
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(target-float64(cum))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// child is one labeled instance of a family.
type child struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Family is one named metric family: a type, a help string, a label
// schema, and the labeled children created on demand. Child lookups
// are mutex-guarded — cache the returned handles.
type Family struct {
	name   string
	help   string
	typ    MetricType
	labels []string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*child
}

const labelSep = "\x1f"

// getChild returns (creating if needed) the child for the given label
// values, or nil on a label-arity mismatch — telemetry must never fail
// the run it observes, and every handle type is nil-safe.
func (f *Family) getChild(values []string) *child {
	if len(values) != len(f.labels) {
		return nil
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c == nil {
		c = &child{values: append([]string(nil), values...)}
		switch f.typ {
		case MetricCounter:
			c.counter = &Counter{}
		case MetricGauge:
			c.gauge = &Gauge{}
		case MetricHistogram:
			c.hist = newHistogram(f.bounds)
		}
		f.children[key] = c
	}
	return c
}

// Counter returns the counter child for the given label values (one
// per declared label, in order). Nil — a safe no-op handle — on arity
// mismatch or on a non-counter family.
func (f *Family) Counter(values ...string) *Counter {
	if c := f.getChild(values); c != nil {
		return c.counter
	}
	return nil
}

// Gauge returns the gauge child for the given label values.
func (f *Family) Gauge(values ...string) *Gauge {
	if c := f.getChild(values); c != nil {
		return c.gauge
	}
	return nil
}

// Histogram returns the histogram child for the given label values.
func (f *Family) Histogram(values ...string) *Histogram {
	if c := f.getChild(values); c != nil {
		return c.hist
	}
	return nil
}

// family returns (creating if needed) a registered family. The first
// registration of a name pins its type, help, labels and buckets;
// later calls return the existing family unchanged.
func (r *Registry) family(name, help string, typ MetricType, bounds []float64, labels []string) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.families == nil {
		r.families = make(map[string]*Family)
	}
	if f := r.families[name]; f != nil {
		return f
	}
	f := &Family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// CounterFamily registers (or returns) a labeled counter family.
func (r *Registry) CounterFamily(name, help string, labels ...string) *Family {
	return r.family(name, help, MetricCounter, nil, labels)
}

// GaugeFamily registers (or returns) a labeled gauge family.
func (r *Registry) GaugeFamily(name, help string, labels ...string) *Family {
	return r.family(name, help, MetricGauge, nil, labels)
}

// HistogramFamily registers (or returns) a labeled histogram family
// with the given upper bucket bounds (the +Inf bucket is implicit).
func (r *Registry) HistogramFamily(name, help string, buckets []float64, labels ...string) *Family {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return r.family(name, help, MetricHistogram, buckets, labels)
}

// sanitizeMetricName maps an internal dotted counter name onto the
// Prometheus charset [a-zA-Z0-9_:], prefixing names that would start
// with a digit.
func sanitizeMetricName(name string) string {
	var sb strings.Builder
	for i, ch := range name {
		ok := ch == '_' || ch == ':' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(ch >= '0' && ch <= '9')
		if ch >= '0' && ch <= '9' && i == 0 {
			sb.WriteByte('_')
		}
		if ok {
			sb.WriteRune(ch)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for a child, with extra appended
// (the histogram le label). Empty when there are no labels at all.
func labelString(names, values []string, extra ...string) string {
	var parts []string
	for i, n := range names {
		parts = append(parts, sanitizeMetricName(n)+`="`+escapeLabelValue(values[i])+`"`)
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format 0.0.4: typed families first-class (HELP + TYPE +
// stable label-sorted samples, histograms in cumulative le form),
// legacy flat counters as untyped samples under their sanitized names.
// Output ordering is fully deterministic, so it can be golden-tested.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*Family, 0, len(r.families))
	taken := make(map[string]bool, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
		taken[sanitizeMetricName(f.name)] = true
	}
	type flat struct {
		name string
		val  int64
	}
	flats := make([]flat, 0, len(r.counters))
	for name, c := range r.counters {
		if n := sanitizeMetricName(name); !taken[n] {
			flats = append(flats, flat{n, c.Load()})
		}
	}
	r.mu.RUnlock()

	sort.Slice(fams, func(i, j int) bool {
		return sanitizeMetricName(fams[i].name) < sanitizeMetricName(fams[j].name)
	})
	sort.Slice(flats, func(i, j int) bool { return flats[i].name < flats[j].name })

	var sb strings.Builder
	for _, f := range fams {
		f.writePrometheus(&sb)
	}
	for _, fl := range flats {
		fmt.Fprintf(&sb, "# TYPE %s untyped\n%s %d\n", fl.name, fl.name, fl.val)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func (f *Family) writePrometheus(sb *strings.Builder) {
	name := sanitizeMetricName(f.name)
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(f.help), name, f.typ)

	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	children := make([]*child, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.RUnlock()

	for _, c := range children {
		switch f.typ {
		case MetricCounter:
			fmt.Fprintf(sb, "%s%s %d\n", name, labelString(f.labels, c.values), c.counter.Load())
		case MetricGauge:
			fmt.Fprintf(sb, "%s%s %s\n", name, labelString(f.labels, c.values), formatFloat(c.gauge.Load()))
		case MetricHistogram:
			cum := int64(0)
			for i, bound := range c.hist.bounds {
				cum += c.hist.counts[i].Load()
				le := fmt.Sprintf("le=%q", formatFloat(bound))
				fmt.Fprintf(sb, "%s_bucket%s %d\n", name, labelString(f.labels, c.values, le), cum)
			}
			fmt.Fprintf(sb, "%s_bucket%s %d\n", name, labelString(f.labels, c.values, `le="+Inf"`), c.hist.Count())
			fmt.Fprintf(sb, "%s_sum%s %s\n", name, labelString(f.labels, c.values), formatFloat(c.hist.Sum()))
			fmt.Fprintf(sb, "%s_count%s %d\n", name, labelString(f.labels, c.values), c.hist.Count())
		}
	}
}

// PrometheusHandler serves the registry as a scrape endpoint.
func (r *Registry) PrometheusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Exposition-format lint: the minimal structural checks CI runs against
// a live scrape (TestExpositionLint drives it against this process's
// registry; the workflow greps a running daemon's endpoint).
var (
	lintSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	lintMeta   = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
)

// LintExposition checks text for exposition-format violations: every
// line must be a well-formed sample or a HELP/TYPE comment, each TYPE
// must name a known metric type and precede its samples, and no metric
// may be typed twice. It returns one message per violation.
func LintExposition(text string) []string {
	var problems []string
	typed := map[string]string{}
	seenSample := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				problems = append(problems, fmt.Sprintf("line %d: malformed TYPE: %s", i+1, line))
				continue
			}
			name, typ := fields[2], fields[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				problems = append(problems, fmt.Sprintf("line %d: unknown metric type %q", i+1, typ))
			}
			if typed[name] != "" {
				problems = append(problems, fmt.Sprintf("line %d: %s typed twice", i+1, name))
			}
			if seenSample[name] {
				problems = append(problems, fmt.Sprintf("line %d: TYPE %s after its samples", i+1, name))
			}
			typed[name] = typ
		case strings.HasPrefix(line, "# HELP "):
			if !lintMeta.MatchString(line) {
				problems = append(problems, fmt.Sprintf("line %d: malformed HELP: %s", i+1, line))
			}
		case strings.HasPrefix(line, "#"):
			// Free-form comment: legal.
		default:
			if !lintSample.MatchString(line) {
				problems = append(problems, fmt.Sprintf("line %d: malformed sample: %s", i+1, line))
				continue
			}
			name := line
			if j := strings.IndexAny(name, "{ "); j >= 0 {
				name = name[:j]
			}
			seenSample[name] = true
			// Histogram series sample under the family's TYPE line.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
					seenSample[base] = true
				}
			}
		}
	}
	return problems
}
