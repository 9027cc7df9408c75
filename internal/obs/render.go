package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Renderer is the human-facing -v sink: progress and segment events are
// rendered as a single rewriting status line with rate and ETA,
// throttled to roughly one update per second; span ends and summaries
// print as permanent lines. It is safe for concurrent use.
type Renderer struct {
	mu sync.Mutex
	w  io.Writer
	// MinPeriod is the minimum interval between progress repaints
	// (default 1s; tests set 0).
	minPeriod time.Duration
	now       func() time.Time

	last     time.Time
	lineLen  int
	rates    map[string]*rateState
	haveLine bool
}

type rateState struct {
	first     time.Time
	firstDone float64
}

// NewRenderer returns a renderer writing to w with a ~1 Hz repaint rate.
func NewRenderer(w io.Writer) *Renderer {
	return &Renderer{w: w, minPeriod: time.Second, now: time.Now, rates: map[string]*rateState{}}
}

// Emit renders one event.
func (r *Renderer) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev.Type {
	case EventProgress, EventSegment:
		r.progress(ev)
	case EventSpanEnd:
		secs, _ := numField(ev.Fields, "seconds")
		r.println(fmt.Sprintf("%-24s done in %s%s", ev.Name,
			time.Duration(secs*float64(time.Second)).Round(time.Millisecond),
			counterSuffix(ev.Fields)))
	case EventSummary:
		r.println(fmt.Sprintf("%-24s %s", ev.Name+" summary:", fieldList(ev.Fields)))
	case EventCounters:
		r.println(fmt.Sprintf("%-24s %s", ev.Name+":", fieldList(ev.Fields)))
	}
}

// progress paints the rewriting status line with percentage, rate and
// ETA derived from "done"/"total" fields, at most once per MinPeriod.
func (r *Renderer) progress(ev Event) {
	now := r.now()
	done, haveDone := numField(ev.Fields, "done")
	total, haveTotal := numField(ev.Fields, "total")
	final := haveDone && haveTotal && done >= total
	if !final && r.minPeriod > 0 && now.Sub(r.last) < r.minPeriod {
		return
	}
	r.last = now

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s", ev.Name)
	if haveDone {
		st := r.rates[ev.Name]
		if st == nil {
			st = &rateState{first: now, firstDone: done}
			r.rates[ev.Name] = st
		}
		if haveTotal && total > 0 {
			fmt.Fprintf(&sb, "  %3.0f%%  %.0f/%.0f", 100*done/total, done, total)
		} else {
			fmt.Fprintf(&sb, "  %.0f", done)
		}
		if dt := now.Sub(st.first).Seconds(); dt > 0 && done > st.firstDone {
			rate := (done - st.firstDone) / dt
			fmt.Fprintf(&sb, "  %s/s", humanRate(rate))
			if haveTotal && rate > 0 && total > done {
				eta := time.Duration((total - done) / rate * float64(time.Second))
				fmt.Fprintf(&sb, "  ETA %s", eta.Round(time.Second))
			}
		}
	}
	if extra := progressExtras(ev.Fields); extra != "" {
		sb.WriteString("  ")
		sb.WriteString(extra)
	}
	r.paint(sb.String(), final)
}

// paint rewrites the status line in place (padding over any longer
// previous paint); final lines are committed with a newline.
func (r *Renderer) paint(line string, final bool) {
	pad := ""
	if n := r.lineLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(r.w, "\r%s%s", line, pad)
	r.lineLen = len(line)
	r.haveLine = true
	if final {
		fmt.Fprintln(r.w)
		r.lineLen = 0
		r.haveLine = false
	}
}

// println commits a full line, first terminating any in-flight status
// line so output never interleaves mid-line.
func (r *Renderer) println(line string) {
	if r.haveLine {
		fmt.Fprintln(r.w)
		r.lineLen = 0
		r.haveLine = false
	}
	fmt.Fprintln(r.w, line)
}

// progressExtras renders the small set of domain fields worth showing
// on the status line beyond done/total.
func progressExtras(fields map[string]any) string {
	var parts []string
	for _, k := range []string{"detected", "remaining", "coverage"} {
		v, ok := numField(fields, k)
		if !ok {
			continue
		}
		if k == "coverage" {
			parts = append(parts, fmt.Sprintf("cov %.2f%%", 100*v))
		} else {
			parts = append(parts, fmt.Sprintf("%s %.0f", k, v))
		}
	}
	return strings.Join(parts, "  ")
}

func counterSuffix(fields map[string]any) string {
	list := fieldListExcept(fields, "seconds")
	if list == "" {
		return ""
	}
	return "  (" + list + ")"
}

func fieldList(fields map[string]any) string { return fieldListExcept(fields, "") }

func fieldListExcept(fields map[string]any, skip string) string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, fields[k]))
	}
	return strings.Join(parts, " ")
}

// humanRate renders a per-second rate with k/M suffixes.
func humanRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// numField extracts a numeric field regardless of the Go integer/float
// type the emitter used.
func numField(fields map[string]any, key string) (float64, bool) {
	switch v := fields[key].(type) {
	case int:
		return float64(v), true
	case int32:
		return float64(v), true
	case int64:
		return float64(v), true
	case uint64:
		return float64(v), true
	case float64:
		return v, true
	case float32:
		return float64(v), true
	}
	return 0, false
}
