// Package client is the shared /v1 HTTP client for sbstd: one typed,
// retrying wrapper used by the worker fleet, the CLI tools and the
// tests, so every caller speaks the same contract (internal/api) with
// the same backoff discipline instead of hand-rolling http.Get loops.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/obs"
)

var (
	ctrRequests = obs.Default().Counter("client.requests")
	ctrRetries  = obs.Default().Counter("client.retries")
)

// Options configure New.
type Options struct {
	// HTTP is the underlying transport (default: a client with a 30s
	// overall request timeout).
	HTTP *http.Client
	// MaxRetries bounds retransmissions per call beyond the first
	// attempt (default 4). Only transport errors, 5xx responses and
	// retryable error envelopes are retried; a 4xx contract error never
	// is.
	MaxRetries int
	// RetryBase/RetryMax shape the exponential backoff between attempts
	// (defaults 100ms / 3s, doubling per attempt with jitter from the
	// upper half of the window — the same discipline as the queue).
	RetryBase time.Duration
	RetryMax  time.Duration
}

// Client talks to one coordinator. Safe for concurrent use.
type Client struct {
	base string
	opts Options

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a client for the coordinator at baseURL (with or without
// a trailing slash; the /v1 prefix is appended per call).
func New(baseURL string, opts Options) *Client {
	if opts.HTTP == nil {
		opts.HTTP = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 4
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 3 * time.Second
	}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		opts: opts,
		rng:  rand.New(rand.NewSource(1)),
	}
}

// Meta fetches the coordinator's capabilities document.
func (c *Client) Meta(ctx context.Context) (*api.Meta, error) {
	var m api.Meta
	if _, err := c.do(ctx, http.MethodGet, "/meta", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Health fetches liveness and occupancy.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if _, err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// SubmitJob enqueues a campaign.
func (c *Client) SubmitJob(ctx context.Context, spec api.JobSpec) (*api.Job, error) {
	var j api.Job
	if _, err := c.do(ctx, http.MethodPost, "/jobs", spec, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Job fetches one job's state and progress.
func (c *Client) Job(ctx context.Context, id string) (*api.Job, error) {
	var j api.Job
	if _, err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// ListOptions filter a ListJobs walk.
type ListOptions struct {
	// Kind/State, when non-zero, restrict the listing server-side.
	Kind  api.JobKind
	State api.JobState
}

// listLimit is the limit of one ListJobs request.
const listLimit = 50

// ListJobs walks the job listing page by page (GET /v1/jobs with
// cursor pagination), calling fn for each job in submission order.
// Return false from fn to stop early. One coordinator round-trip per
// listLimit jobs.
func (c *Client) ListJobs(ctx context.Context, opts ListOptions, fn func(api.Job) bool) error {
	after := ""
	for {
		q := url.Values{}
		q.Set("limit", strconv.Itoa(listLimit))
		if after != "" {
			q.Set("after", after)
		}
		if opts.Kind != "" {
			q.Set("kind", string(opts.Kind))
		}
		if opts.State != "" {
			q.Set("state", string(opts.State))
		}
		var l api.JobList
		if _, err := c.do(ctx, http.MethodGet, "/jobs?"+q.Encode(), nil, &l); err != nil {
			return err
		}
		for _, j := range l.Jobs {
			if !fn(j) {
				return nil
			}
		}
		if l.NextAfter == "" {
			return nil
		}
		after = l.NextAfter
	}
}

// SubmitGA enqueues a ga_search job: the coordinator evolves a
// self-test program for the design and reports the best genome.
func (c *Client) SubmitGA(ctx context.Context, design string, g api.GaSpec) (*api.Job, error) {
	return c.SubmitJob(ctx, api.JobSpec{Kind: api.JobGaSearch, Design: design, Ga: &g})
}

// Result fetches a terminal job's result. While the job is still
// running the coordinator answers 409 job_not_finished — surfaced as a
// retryable *api.Error, which is NOT retried internally (polling policy
// belongs to the caller; see WaitResult).
func (c *Client) Result(ctx context.Context, id string) (*api.JobResult, error) {
	var r api.JobResult
	if _, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WaitResult polls until the job reaches a terminal state, the result
// is served, or ctx ends.
func (c *Client) WaitResult(ctx context.Context, id string, poll time.Duration) (*api.JobResult, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		res, err := c.Result(ctx, id)
		var ae *api.Error
		if err == nil || !api.AsError(err, &ae) || ae.Code != api.CodeJobNotFinished {
			return res, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// AcquireLease asks for a work unit. (nil, nil) means no work is
// available right now (the coordinator answered 204).
func (c *Client) AcquireLease(ctx context.Context, workerID string) (*api.Lease, error) {
	var l api.Lease
	status, err := c.do(ctx, http.MethodPost, "/leases", api.LeaseRequest{WorkerID: workerID}, &l)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &l, nil
}

// HeartbeatLease extends a lease and reports unit progress.
func (c *Client) HeartbeatLease(ctx context.Context, leaseID string, hb api.Heartbeat) (*api.HeartbeatAck, error) {
	var ack api.HeartbeatAck
	if _, err := c.do(ctx, http.MethodPost, "/leases/"+leaseID+"/heartbeat", hb, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// CompleteLease uploads a finished unit's detection bitmaps.
func (c *Client) CompleteLease(ctx context.Context, leaseID string, res *api.UnitResult) error {
	_, err := c.do(ctx, http.MethodPost, "/leases/"+leaseID+"/result", res, nil)
	return err
}

// FailLease reports a unit the worker could not finish.
func (c *Client) FailLease(ctx context.Context, leaseID string, f api.LeaseFailure) error {
	_, err := c.do(ctx, http.MethodPost, "/leases/"+leaseID+"/fail", f, nil)
	return err
}

// do runs one API call with the retry/backoff loop: transport errors,
// 5xx responses and retryable envelopes are retried up to MaxRetries
// (honoring Retry-After when the server sends one); contract errors
// (4xx, including retryable 409s like job_not_finished and lease_gone)
// return immediately as *api.Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (int, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, retryAfter, err := c.once(ctx, method, path, in, out)
		if err == nil {
			return status, nil
		}
		lastErr = err
		if !retryableCall(status, err) || attempt >= c.opts.MaxRetries {
			return status, err
		}
		ctrRetries.Add(1)
		delay := c.retryDelay(attempt+1, retryAfter)
		select {
		case <-ctx.Done():
			return status, fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
		case <-time.After(delay):
		}
	}
}

// once performs a single HTTP exchange.
func (c *Client) once(ctx context.Context, method, path string, in, out any) (status int, retryAfter time.Duration, err error) {
	ctrRequests.Add(1)
	// Chaos point: a flaky link between worker and coordinator — the
	// request fails (or stalls) before reaching the wire, and the retry
	// loop must absorb it.
	if f := chaos.Maybe("client.request"); f != nil {
		f.Sleep(ctx)
		if ierr := f.Err(); ierr != nil {
			return 0, 0, fmt.Errorf("client: %s %s: %w", method, path, ierr)
		}
	}
	var body io.Reader
	if in != nil {
		data, merr := json.Marshal(in)
		if merr != nil {
			return 0, 0, fmt.Errorf("client: marshal %s %s: %w", method, path, merr)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+api.Prefix+path, body)
	if err != nil {
		return 0, 0, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := traceIDFrom(ctx); id != "" {
		req.Header.Set("X-Trace-Id", id)
	}
	resp, err := c.opts.HTTP.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))

	if resp.StatusCode >= 400 || (resp.StatusCode >= 300 && resp.StatusCode != http.StatusNoContent) {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var e api.Error
		if json.Unmarshal(data, &e) == nil && e.Code != "" {
			return resp.StatusCode, retryAfter, &e
		}
		return resp.StatusCode, retryAfter,
			fmt.Errorf("client: %s %s: HTTP %d: %s", method, path, resp.StatusCode, firstLine(data))
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		if rerr != nil {
			return resp.StatusCode, retryAfter, fmt.Errorf("client: read %s %s: %w", method, path, rerr)
		}
		// A job_failed envelope rides on HTTP 200 (the request itself
		// succeeded; the job didn't) — surface it as the error it is
		// instead of decoding a zero-valued result.
		var e api.Error
		if json.Unmarshal(data, &e) == nil && e.Code != "" && e.Message != "" {
			return resp.StatusCode, retryAfter, &e
		}
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, retryAfter, fmt.Errorf("client: decode %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// retryableCall decides whether the retry loop may re-send: transport
// failures (status 0) and server-side trouble (5xx, or an envelope the
// server marked retryable on a 5xx) qualify; 4xx contract answers do
// not — a job_not_finished 409 is the caller's polling signal, not a
// transport fault.
func retryableCall(status int, err error) bool {
	if status == 0 {
		return true
	}
	if status >= 500 {
		var ae *api.Error
		if api.AsError(err, &ae) {
			return ae.Retryable
		}
		return true
	}
	return false
}

// retryDelay picks the wait before re-sending attempt N. A server that
// sent Retry-After (503 load shedding, queue-full, drain) knows its own
// recovery horizon better than our exponential guess does: its hint is
// THE delay, not a floor under an ever-growing backoff — retrying a
// shedding coordinator in 5s as asked beats sitting out a 3s-capped
// backoff that ignores it, and equally beats stacking the two. Without
// a hint the usual exponential backoff applies.
func (c *Client) retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	return c.backoff(attempt)
}

// backoff is the queue's retry formula: base doubled per attempt,
// capped, with jitter from the upper half of the window.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.RetryBase
	for i := 1; i < attempt && d < c.opts.RetryMax; i++ {
		d *= 2
	}
	if d > c.opts.RetryMax {
		d = c.opts.RetryMax
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d)/2+1))
}

func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func firstLine(data []byte) string {
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
