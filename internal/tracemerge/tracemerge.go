// Package tracemerge stitches per-process NDJSON trace files into one
// campaign timeline. Each process (coordinator, worker) writes its own
// trace with relative timestamps; the trace_open header event carries
// the sink's epoch as absolute Unix seconds, and every event belonging
// to a distributed campaign carries the job's trace ID. Merging aligns
// the files on the absolute axis, selects one trace ID, pairs
// span_start/span_end events into spans, and computes the summaries
// cmd/sbst-trace renders: a per-worker utilization table and the
// critical path through the campaign's spans.
package tracemerge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// Span is one completed (or still-open) span on the absolute time axis.
type Span struct {
	// Source identifies the emitting process (trace_open's name, or the
	// file name when the header is missing).
	Source string
	// Name is the span name as emitted (e.g. "engine.dist",
	// "faultsim").
	Name string
	// Start and End are absolute Unix seconds.
	Start, End float64
	// Open marks a span whose span_end never arrived (crashed or
	// SIGKILLed process); End is the source's last event time.
	Open bool
}

// Seconds is the span's duration.
func (s Span) Seconds() float64 { return s.End - s.Start }

// Event is one non-span event on the absolute axis.
type Event struct {
	Source string
	T      float64 // absolute Unix seconds
	Type   string
	Name   string
	Fields map[string]any
}

// Timeline is the merged view of one campaign trace.
type Timeline struct {
	// Trace is the selected trace ID.
	Trace string
	// Sources lists the contributing processes in first-seen order.
	Sources []string
	// Spans are sorted by start time (ties by source, then name).
	Spans []Span
	// Events are the trace's non-span events, sorted by time.
	Events []Event
	// Start and End bound the trace on the absolute axis.
	Start, End float64
}

// Wall is the timeline's total wall-clock extent.
func (tl *Timeline) Wall() float64 { return tl.End - tl.Start }

// fileTrace is one parsed NDJSON file before merging.
type fileTrace struct {
	source string
	epoch  float64
	lines  []rawLine
	lastT  float64
	counts map[string]int // events per trace ID
}

type rawLine struct {
	t      float64
	typ    string
	name   string
	trace  string
	fields map[string]any
}

// MergeFiles parses and merges NDJSON trace files. An empty traceID
// auto-selects the ID with the most events across all files
// (lexicographically smallest on a tie).
func MergeFiles(paths []string, traceID string) (*Timeline, error) {
	named := make([]namedReader, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		named = append(named, namedReader{name: filepath.Base(p), r: f})
	}
	return merge(named, traceID)
}

type namedReader struct {
	name string
	r    io.Reader
}

func merge(inputs []namedReader, traceID string) (*Timeline, error) {
	files := make([]*fileTrace, 0, len(inputs))
	for _, in := range inputs {
		ft, err := parseFile(in.name, in.r)
		if err != nil {
			return nil, err
		}
		files = append(files, ft)
	}
	if traceID == "" {
		traceID = dominantTrace(files)
	}
	if traceID == "" {
		return nil, fmt.Errorf("tracemerge: no traced events in %d file(s)", len(inputs))
	}

	tl := &Timeline{Trace: traceID, Start: math.Inf(1), End: math.Inf(-1)}
	for _, ft := range files {
		// Open-span bookkeeping per span name, FIFO: concurrent same-name
		// spans pair earliest start with earliest end, which is exact for
		// the engine's nesting discipline and conservative otherwise.
		openSpans := make(map[string][]float64)
		contributed := false
		for _, ln := range ft.lines {
			if ln.trace != traceID {
				continue
			}
			contributed = true
			abs := ft.epoch + ln.t
			tl.observe(abs)
			switch ln.typ {
			case obs.EventSpanStart:
				openSpans[ln.name] = append(openSpans[ln.name], abs)
			case obs.EventSpanEnd:
				starts := openSpans[ln.name]
				if len(starts) > 0 {
					tl.Spans = append(tl.Spans, Span{
						Source: ft.source, Name: ln.name, Start: starts[0], End: abs,
					})
					openSpans[ln.name] = starts[1:]
				} else if secs, ok := ln.fields["seconds"].(float64); ok {
					// span_start lost (rotated file, partial capture): the
					// end event's own duration field reconstructs the span.
					tl.Spans = append(tl.Spans, Span{
						Source: ft.source, Name: ln.name, Start: abs - secs, End: abs,
					})
					tl.observe(abs - secs)
				}
			default:
				tl.Events = append(tl.Events, Event{
					Source: ft.source, T: abs, Type: ln.typ, Name: ln.name, Fields: ln.fields,
				})
			}
		}
		// Spans still open at end of file: the process died mid-span.
		for name, starts := range openSpans {
			for _, start := range starts {
				end := ft.epoch + ft.lastT
				if end < start {
					end = start
				}
				tl.Spans = append(tl.Spans, Span{
					Source: ft.source, Name: name, Start: start, End: end, Open: true,
				})
				tl.observe(end)
			}
		}
		if contributed {
			tl.Sources = append(tl.Sources, ft.source)
		}
	}
	if len(tl.Spans) == 0 && len(tl.Events) == 0 {
		return nil, fmt.Errorf("tracemerge: trace %s matches no events", traceID)
	}
	sort.Strings(tl.Sources)
	sort.Slice(tl.Spans, func(i, j int) bool {
		a, b := tl.Spans[i], tl.Spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Name < b.Name
	})
	sort.Slice(tl.Events, func(i, j int) bool { return tl.Events[i].T < tl.Events[j].T })
	return tl, nil
}

func (tl *Timeline) observe(t float64) {
	if t < tl.Start {
		tl.Start = t
	}
	if t > tl.End {
		tl.End = t
	}
}

func parseFile(name string, r io.Reader) (*fileTrace, error) {
	ft := &fileTrace{source: name, counts: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(raw, &obj); err != nil {
			return nil, fmt.Errorf("tracemerge: %s:%d: %v", name, lineNo, err)
		}
		ln := rawLine{fields: make(map[string]any)}
		for k, v := range obj {
			switch k {
			case "t":
				ln.t, _ = v.(float64)
			case "type":
				ln.typ, _ = v.(string)
			case "name":
				ln.name, _ = v.(string)
			case "trace":
				ln.trace, _ = v.(string)
			default:
				ln.fields[k] = v
			}
		}
		if ln.typ == obs.EventTraceOpen {
			if e, ok := ln.fields["epoch_unix"].(float64); ok {
				ft.epoch = e
			}
			if ln.name != "" {
				ft.source = ln.name
			}
			continue
		}
		if ln.t > ft.lastT {
			ft.lastT = ln.t
		}
		if ln.trace != "" {
			ft.counts[ln.trace]++
		}
		ft.lines = append(ft.lines, ln)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tracemerge: %s: %v", name, err)
	}
	return ft, nil
}

// dominantTrace picks the trace ID with the most events across files.
func dominantTrace(files []*fileTrace) string {
	totals := make(map[string]int)
	for _, ft := range files {
		for id, n := range ft.counts {
			totals[id] += n
		}
	}
	best, bestN := "", 0
	for id, n := range totals {
		if n > bestN || (n == bestN && (best == "" || id < best)) {
			best, bestN = id, n
		}
	}
	return best
}

// Utilization returns, per source, the fraction of the timeline's wall
// clock covered by at least one of that source's spans (interval
// union, so nested and overlapping spans are not double-counted).
func (tl *Timeline) Utilization() map[string]float64 {
	busy := make(map[string]float64)
	bySource := make(map[string][]Span)
	for _, s := range tl.Spans {
		bySource[s.Source] = append(bySource[s.Source], s)
	}
	for src, spans := range bySource {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		var total, curStart, curEnd float64
		curStart, curEnd = math.Inf(1), math.Inf(-1)
		for _, s := range spans {
			if s.Start > curEnd {
				if curEnd > curStart {
					total += curEnd - curStart
				}
				curStart, curEnd = s.Start, s.End
				continue
			}
			if s.End > curEnd {
				curEnd = s.End
			}
		}
		if curEnd > curStart {
			total += curEnd - curStart
		}
		busy[src] = total
	}
	out := make(map[string]float64, len(busy))
	wall := tl.Wall()
	for src, b := range busy {
		if wall > 0 {
			out[src] = b / wall
		} else {
			out[src] = 0
		}
	}
	return out
}

// CriticalPath walks the span set greedily backward from the span that
// ends last: each step jumps to the latest-ending span that started
// before the current one — the chain of work the campaign's wall clock
// could not have finished without. Returned in chronological order.
func (tl *Timeline) CriticalPath() []Span {
	if len(tl.Spans) == 0 {
		return nil
	}
	last := tl.Spans[0]
	for _, s := range tl.Spans {
		if s.End > last.End {
			last = s
		}
	}
	path := []Span{last}
	cur := last
	for {
		var next Span
		found := false
		for _, s := range tl.Spans {
			if s.Start < cur.Start && s.End > cur.Start {
				if !found || s.End > next.End || (s.End == next.End && s.Start < next.Start) {
					next, found = s, true
				}
			}
		}
		if !found {
			break
		}
		path = append(path, next)
		cur = next
	}
	// Reverse into chronological order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Render writes the human-readable timeline summary.
func (tl *Timeline) Render(w io.Writer) {
	fmt.Fprintf(w, "trace %s: %d process(es), %d span(s), %d event(s), %.3fs wall\n",
		tl.Trace, len(tl.Sources), len(tl.Spans), len(tl.Events), tl.Wall())
	util := tl.Utilization()
	for _, src := range tl.Sources {
		n := 0
		for _, s := range tl.Spans {
			if s.Source == src {
				n++
			}
		}
		fmt.Fprintf(w, "  %-24s %3d span(s)  busy %5.1f%%\n", src, n, util[src]*100)
	}
	path := tl.CriticalPath()
	pathSecs := 0.0
	for _, s := range path {
		pathSecs += s.Seconds()
	}
	fmt.Fprintf(w, "critical path: %d span(s), %.3fs of %.3fs wall\n", len(path), pathSecs, tl.Wall())
	for _, s := range path {
		open := ""
		if s.Open {
			open = " (open)"
		}
		fmt.Fprintf(w, "  [%8.3f %8.3f] %-24s %s (%.3fs)%s\n",
			s.Start-tl.Start, s.End-tl.Start, s.Source, s.Name, s.Seconds(), open)
	}
	fmt.Fprintln(w, "spans:")
	for _, s := range tl.Spans {
		open := ""
		if s.Open {
			open = " (open)"
		}
		fmt.Fprintf(w, "  [%8.3f %8.3f] %-24s %s (%.3fs)%s\n",
			s.Start-tl.Start, s.End-tl.Start, s.Source, s.Name, s.Seconds(), open)
	}
}
