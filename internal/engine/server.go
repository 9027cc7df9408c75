package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/designs"
	"repro/internal/obs"
)

var ctrServerShed = obs.Default().Counter("sbstd.shed")

// ServerOptions are the degradation knobs for the HTTP layer. The zero
// value disables them all.
type ServerOptions struct {
	// RequestTimeout bounds each request's handler time; expired
	// requests answer 503 with a JSON error envelope. Zero disables.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served requests; excess load is
	// shed with 503 + Retry-After instead of queueing without bound.
	// Zero disables shedding.
	MaxInflight int
	// Pool enables the distributed-campaign lease endpoints: workers
	// pull work units from it and upload detection bitmaps back. Nil
	// runs a jobs-only (single-process) server.
	Pool *LeasePool
	// Events enables GET /v1/jobs/{id}/events, the SSE job event
	// stream. Wire the same broker into QueueOptions.Events and
	// PoolOptions.Events so all three publish into one sequence.
	Events *JobEventBroker

	// retryAfter overrides, in tests, the Retry-After hint on shed and
	// queue-full responses (default 5s).
	retryAfter time.Duration
}

// Server exposes a Queue (and optionally a LeasePool) over the
// versioned /v1 HTTP API:
//
//	POST /v1/jobs                    submit a JobSpec, 202 + the queued job
//	GET  /v1/jobs                    list jobs in submission order
//	GET  /v1/jobs/{id}               one job's state and progress snapshot
//	GET  /v1/jobs/{id}/result        the completed result (409 until terminal)
//	GET  /v1/jobs/{id}/events        SSE stream of job events (Last-Event-ID resume)
//	GET  /v1/healthz                 liveness + queue and lease occupancy
//	GET  /v1/meta                    API capabilities document
//	GET  /v1/metrics                 Prometheus text-format metrics
//	POST /v1/leases                  acquire a work-unit lease (204 = no work)
//	POST /v1/leases/{id}/heartbeat   extend a lease, report unit progress
//	POST /v1/leases/{id}/result      upload a finished unit's bitmaps
//	POST /v1/leases/{id}/fail        report a unit the worker could not finish
//
// GET /v1/jobs supports cursor pagination (?limit=N&after=<job-id>)
// and kind/state filters; the response's next_after field is the
// cursor for the following page.
//
// The pre-/v1 job routes (POST/GET /jobs, GET /healthz, ...) — aliases
// that shipped with a Deprecation header for several releases — have
// been removed: they now answer 404 with a Link header
// (rel="successor-version") pointing at the /v1 route.
//
// Error bodies are api.Error envelopes — {"code","message","retryable"}
// plus a legacy "error" key for pre-/v1 clients. Submission answers 400
// on a malformed spec, 422 on an unknown job or vector kind or a
// sub-spec that does not match the job kind (spec_mismatch), and 503
// (with Retry-After) while draining or when the bounded queue is full.
// Under ServerOptions the server also sheds excess concurrent load and
// times out stuck requests, so a wedged campaign can not pile up
// connections until the daemon dies.
type Server struct {
	q        *Queue
	pool     *LeasePool
	opts     ServerOptions
	inflight chan struct{}
	handler  http.Handler
}

// NewServerWith wraps a queue in the HTTP API with the given
// degradation options.
func NewServerWith(q *Queue, opts ServerOptions) *Server {
	if opts.retryAfter <= 0 {
		opts.retryAfter = 5 * time.Second
	}
	s := &Server{q: q, pool: opts.Pool, opts: opts}
	if opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInflight)
	}
	mux := http.NewServeMux()
	v1 := func(pattern string, h http.HandlerFunc) {
		method, path, _ := splitPattern(pattern)
		mux.HandleFunc(method+" "+api.Prefix+path, h)
	}
	// legacy tombstones the removed pre-/v1 alias: 404 with a Link
	// header naming the successor route. The aliases answered with a
	// Deprecation header for several releases before removal.
	legacy := func(pattern string) {
		method, path, _ := splitPattern(pattern)
		mux.HandleFunc(method+" "+path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Link", fmt.Sprintf("<%s%s>; rel=%q", api.Prefix, path, "successor-version"))
			writeAPIErr(w, api.Errf(api.CodeNotFound, false,
				"the unversioned %s route was removed; use %s%s", path, api.Prefix, path))
		})
	}
	for _, route := range []struct {
		pattern string
		h       http.HandlerFunc
		removed bool
	}{
		{"POST /jobs", s.submit, true},
		{"GET /jobs", s.list, true},
		{"GET /jobs/{id}", s.get, true},
		{"GET /jobs/{id}/result", s.result, true},
		{"GET /healthz", s.health, true},
		{"GET /meta", s.meta, false},
		{"GET /metrics", s.metrics, false},
		{"POST /leases", s.leaseAcquire, false},
		{"POST /leases/{id}/heartbeat", s.leaseHeartbeat, false},
		{"POST /leases/{id}/result", s.leaseResult, false},
		{"POST /leases/{id}/fail", s.leaseFail, false},
	} {
		v1(route.pattern, route.h)
		if route.removed {
			legacy(route.pattern)
		}
	}
	// Chaos point: a request that stalls while being handled (wedged
	// campaign lookup, saturated disk) — inside the timeout handler and
	// the inflight accounting, so tests can drive the timeout and
	// shedding paths end to end.
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f := chaos.Maybe("sbstd.request"); f != nil {
			f.Sleep(r.Context())
		}
		mux.ServeHTTP(w, r)
	})
	s.handler = inner
	if opts.RequestTimeout > 0 {
		timeoutBody, _ := json.Marshal(api.Errf(api.CodeTimeout, true, "request timed out"))
		s.handler = http.TimeoutHandler(inner, opts.RequestTimeout, string(timeoutBody))
	}
	// The SSE stream lives outside the timeout wrapper: a follow is
	// long-lived by design, and http.TimeoutHandler's ResponseWriter
	// implements no Flusher. Load shedding in ServeHTTP still applies.
	outer := http.NewServeMux()
	outer.HandleFunc("GET "+api.Prefix+"/jobs/{id}/events", s.events)
	outer.Handle("/", s.handler)
	s.handler = outer
	return s
}

// splitPattern separates "METHOD /path" for route registration.
func splitPattern(pattern string) (method, path string, ok bool) {
	for i := range pattern {
		if pattern[i] == ' ' {
			return pattern[:i], pattern[i+1:], true
		}
	}
	return "", pattern, false
}

// ServeHTTP implements http.Handler: load shedding first, then the
// (optionally time-bounded) API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			ctrServerShed.Add(1)
			s.retryAfter(w)
			writeAPIErr(w, api.Errf(api.CodeUnavailable, true, "server at capacity"))
			return
		}
	}
	s.handler.ServeHTTP(w, r)
}

func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.opts.retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "bad job spec: %v", err))
		return
	}
	job, err := s.q.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		// Back-pressure, not failure: tell the client when to retry.
		s.retryAfter(w)
		writeAPIErr(w, api.Errf(api.CodeUnavailable, true, "%v", err))
	case errors.Is(err, api.ErrUnknownKind):
		// 422: the request parsed, but names a kind this server does not
		// implement — a contract mismatch, not a malformed payload.
		writeAPIErr(w, api.Errf(api.CodeUnknownKind, false, "%v", err))
	case errors.Is(err, api.ErrUnknownDesign):
		// 422: same contract-mismatch family — the design ID does not
		// resolve in this server's registry.
		writeAPIErr(w, api.Errf(api.CodeUnknownDesign, false, "%v", err))
	case errors.Is(err, api.ErrSpecMismatch):
		// 422: the spec parsed but carries a sub-spec (matrix, online,
		// ga) that does not belong to its kind.
		writeAPIErr(w, api.Errf(api.CodeSpecMismatch, false, "%v", err))
	case err != nil:
		writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "%v", err))
	default:
		writeJSON(w, http.StatusAccepted, job)
	}
}

// list serves GET /v1/jobs: every job in submission order, with
// optional kind/state filters and cursor pagination. The cursor
// (?after=) is a job ID in the unfiltered submission order, so a page
// boundary stays stable while new jobs arrive; next_after in the
// response is the cursor for the following page and is absent on the
// last one.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	limit := 0
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "bad limit %q", v))
			return
		}
		limit = n
	}
	var kind api.JobKind
	if v := qp.Get("kind"); v != "" {
		kind = api.JobKind(v)
		if !kind.Valid() {
			writeAPIErr(w, api.Errf(api.CodeUnknownKind, false, "unknown job kind %q", v))
			return
		}
	}
	var state JobState
	if v := qp.Get("state"); v != "" {
		state = JobState(v)
		switch state {
		case JobQueued, JobRunning, JobCompleted, JobFailed:
		default:
			writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "unknown job state %q", v))
			return
		}
	}
	jobs := s.q.Jobs()
	if after := qp.Get("after"); after != "" {
		idx := -1
		for i := range jobs {
			if jobs[i].ID == after {
				idx = i
				break
			}
		}
		if idx < 0 {
			writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "unknown cursor %q", after))
			return
		}
		jobs = jobs[idx+1:]
	}
	out := api.JobList{Jobs: []Job{}}
	for i := range jobs {
		if kind != "" && jobs[i].Spec.Kind != kind {
			continue
		}
		if state != "" && jobs[i].State != state {
			continue
		}
		if limit > 0 && len(out.Jobs) == limit {
			// Another match exists beyond this page: hand out the cursor.
			out.NextAfter = out.Jobs[len(out.Jobs)-1].ID
			break
		}
		out.Jobs = append(out.Jobs, jobs[i])
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	job, ok := s.q.Get(r.PathValue("id"))
	if !ok {
		writeAPIErr(w, api.Errf(api.CodeNotFound, false, "unknown job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// result serves a job's terminal outcome. The documented lifecycle:
// queued/running answer 409 job_not_finished (retryable — poll again),
// completed answers 200 with the JobResult, failed answers 200 with a
// job_failed envelope carrying the error.
func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	job, ok := s.q.Get(r.PathValue("id"))
	if !ok {
		writeAPIErr(w, api.Errf(api.CodeNotFound, false, "unknown job %s", r.PathValue("id")))
		return
	}
	switch job.State {
	case JobCompleted:
		writeJSON(w, http.StatusOK, job.Result)
	case JobFailed:
		e := api.Errf(api.CodeJobFailed, false, "%s", job.Error)
		e.Detail = map[string]any{"state": job.State}
		writeAPIErr(w, e)
	default:
		e := api.Errf(api.CodeJobNotFinished, true, "job %s is %s; retry after it finishes", job.ID, job.State)
		e.Detail = map[string]any{"state": job.State, "progress": job.Progress}
		writeAPIErr(w, e)
	}
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	h := api.Health{Status: "ok", Jobs: s.q.Counts()}
	if s.q.Draining() {
		h.Status = "draining"
	}
	if s.pool != nil {
		c := s.pool.Counts()
		h.Leases = &c
	}
	writeJSON(w, http.StatusOK, h)
}

// meta is the capabilities document: what this server speaks, so
// clients and workers can verify compatibility before doing work.
func (s *Server) meta(w http.ResponseWriter, r *http.Request) {
	caps := []string{"jobs", "checkpoint", "metrics", "designs", "online", "ga", "list_pagination"}
	if s.pool != nil {
		caps = append(caps, "leases")
	}
	if s.opts.Events != nil {
		caps = append(caps, "events")
	}
	if s.q != nil && s.q.opts.Journal != nil {
		caps = append(caps, "journal")
	}
	writeJSON(w, http.StatusOK, api.Meta{
		Service:      "sbstd",
		APIVersion:   api.Version,
		Versions:     []string{api.Version},
		JobKinds:     api.JobKinds(),
		VectorKinds:  api.VectorKinds(),
		Capabilities: caps,
		Designs:      designs.Bundled(),
		Obs:          metaObs(),
	})
}

// ctrGateEvalsMeta reads the fault simulator's lifetime gate-eval count
// for the meta snapshot (same counter the bench reports through).
var ctrGateEvalsMeta = obs.Default().Counter("faultsim.gate_evals")

// metaObs assembles the /v1/meta observability summary.
func metaObs() *api.MetaObs {
	return &api.MetaObs{
		GateEvals:          ctrGateEvalsMeta.Load(),
		VectorsPerSec:      gaugeVectorsPerSec.Load(),
		HeartbeatP99Millis: histHeartbeatGap.Quantile(0.99) * 1000,
	}
}

// metrics serves the process-wide registry in the Prometheus text
// exposition format.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
}

// events serves GET /v1/jobs/{id}/events: the job's event stream as
// Server-Sent Events. Each frame's SSE id is the JobEvent's Seq;
// clients resume with Last-Event-ID (or ?after=N). The stream ends
// after the terminal result frame. A subscriber that lags behind the
// broker's buffer is transparently re-subscribed from its last frame.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.q.Get(id); !ok {
		writeAPIErr(w, api.Errf(api.CodeNotFound, false, "unknown job %s", id))
		return
	}
	if s.opts.Events == nil {
		writeAPIErr(w, api.Errf(api.CodeUnavailable, false, "this server runs without an event stream"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeAPIErr(w, api.Errf(api.CodeUnavailable, false, "connection does not support streaming"))
		return
	}
	last := int64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		last, _ = strconv.ParseInt(v, 10, 64)
	} else if v := r.URL.Query().Get("after"); v != "" {
		last, _ = strconv.ParseInt(v, 10, 64)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		replay, ch, cancel := s.opts.Events.Subscribe(id, last)
		for _, ev := range replay {
			if !writeSSE(w, ev) {
				cancel()
				return
			}
			last = ev.Seq
			if ev.Type == api.JobEventResult {
				fl.Flush()
				cancel()
				return
			}
		}
		// A job that went terminal before the broker saw it (recovered
		// from a snapshot, or its ring trimmed past the result frame)
		// will never publish again: synthesize the terminal frame from
		// the job snapshot — same Result pointer the polled route serves.
		if job, ok := s.q.Get(id); ok && (job.State == JobCompleted || job.State == JobFailed) {
			writeSSE(w, api.JobEvent{
				Seq: last + 1, Type: api.JobEventResult, JobID: id,
				TraceID: job.Spec.TraceID, State: job.State,
				Result: job.Result, Error: job.Error,
			})
			fl.Flush()
			cancel()
			return
		}
		fl.Flush()
	live:
		for {
			select {
			case <-r.Context().Done():
				cancel()
				return
			case <-keepalive.C:
				if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
					cancel()
					return
				}
				fl.Flush()
			case ev, open := <-ch:
				if !open {
					// Lagged out of the broker's buffer; re-subscribe and
					// replay what we missed.
					break live
				}
				if !writeSSE(w, ev) {
					cancel()
					return
				}
				fl.Flush()
				last = ev.Seq
				if ev.Type == api.JobEventResult {
					cancel()
					return
				}
			}
		}
		cancel()
	}
}

// writeSSE renders one SSE frame; false on a dead connection.
func writeSSE(w io.Writer, ev api.JobEvent) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err == nil
}

// leasePool gates the lease endpoints on distributed mode.
func (s *Server) leasePool(w http.ResponseWriter) *LeasePool {
	if s.pool == nil {
		writeAPIErr(w, api.Errf(api.CodeUnavailable, false, "this coordinator runs without a worker fleet"))
		return nil
	}
	return s.pool
}

func (s *Server) leaseAcquire(w http.ResponseWriter, r *http.Request) {
	p := s.leasePool(w)
	if p == nil {
		return
	}
	var req api.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "bad lease request: %v", err))
		return
	}
	l, err := p.Acquire(req)
	if err != nil {
		writeAnyErr(w, err)
		return
	}
	if l == nil {
		// No offerable unit right now: the worker idles and polls again.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

func (s *Server) leaseHeartbeat(w http.ResponseWriter, r *http.Request) {
	p := s.leasePool(w)
	if p == nil {
		return
	}
	var hb api.Heartbeat
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "bad heartbeat: %v", err))
		return
	}
	ack, err := p.Heartbeat(r.PathValue("id"), hb)
	if err != nil {
		writeAnyErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Server) leaseResult(w http.ResponseWriter, r *http.Request) {
	p := s.leasePool(w)
	if p == nil {
		return
	}
	var res api.UnitResult
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "bad unit result: %v", err))
		return
	}
	if err := p.Complete(r.PathValue("id"), &res); err != nil {
		writeAnyErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) leaseFail(w http.ResponseWriter, r *http.Request) {
	p := s.leasePool(w)
	if p == nil {
		return
	}
	var f api.LeaseFailure
	if err := json.NewDecoder(r.Body).Decode(&f); err != nil {
		writeAPIErr(w, api.Errf(api.CodeBadRequest, false, "bad failure report: %v", err))
		return
	}
	if err := p.Fail(r.PathValue("id"), f); err != nil {
		writeAnyErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeAPIErr serves an error envelope at its code's canonical status.
func writeAPIErr(w http.ResponseWriter, e *api.Error) {
	writeJSON(w, api.HTTPStatus(e.Code), e)
}

// writeAnyErr envelopes arbitrary errors: api.Error verbatim, anything
// else as an internal error.
func writeAnyErr(w http.ResponseWriter, err error) {
	var e *api.Error
	if errors.As(err, &e) {
		writeAPIErr(w, e)
		return
	}
	writeAPIErr(w, api.Errf(api.CodeInternal, false, "%v", err))
}
