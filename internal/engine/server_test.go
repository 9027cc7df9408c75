package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

func testServer(t *testing.T, opts QueueOptions) (*httptest.Server, *Queue) {
	t.Helper()
	if opts.Exec == nil {
		opts.Exec = func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			update(Progress{Done: spec.Vectors.Count, Total: spec.Vectors.Count, Coverage: 0.75})
			return &JobResult{Coverage: 0.75, Cycles: spec.Vectors.Count, Faults: 42, Detected: 31}, nil
		}
	}
	q := NewQueue(opts)
	q.Start()
	srv := httptest.NewServer(NewServerWith(q, ServerOptions{}))
	t.Cleanup(srv.Close)
	return srv, q
}

func decode(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestServerJobLifecycle drives the full submit → poll → result flow.
func TestServerJobLifecycle(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{Workers: 1})

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":512},"workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var job Job
	decode(t, resp, &job)
	if job.ID == "" || job.Spec.Kind != JobFaultSim {
		t.Fatalf("submitted job %+v", job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		decode(t, resp, &job)
		if job.State == JobCompleted {
			break
		}
		if job.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job state %s (error %q)", job.State, job.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if job.Progress.Done != 512 || job.Progress.Coverage != 0.75 {
		t.Fatalf("final progress %+v", job.Progress)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d, want 200", resp.StatusCode)
	}
	var res JobResult
	decode(t, resp, &res)
	if res.Coverage != 0.75 || res.Cycles != 512 || res.Faults != 42 {
		t.Fatalf("result %+v", res)
	}

	var list struct{ Jobs []Job }
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("job list %+v", list.Jobs)
	}

	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string
		Jobs   map[JobState]int
	}
	decode(t, resp, &health)
	if health.Status != "ok" || health.Jobs[JobCompleted] != 1 {
		t.Fatalf("health %+v", health)
	}
}

// TestServerErrorPaths covers the 400/404/409 surface.
func TestServerErrorPaths(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{Workers: 1})

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"kind":"bogus"}`, http.StatusUnprocessableEntity},
		{`{"kind":"fault_sim","vectors":{"kind":"csv","count":10}}`, http.StatusUnprocessableEntity},
		{`{"kind":"fault_sim","vectors":{"kind":"bist"}}`, http.StatusBadRequest},
		{`{"kind":"fault_sim","vectors":{"kind":"bist","count":10},"unknown_field":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable bool   `json:"retryable"`
			Legacy    string `json:"error"`
		}
		decode(t, resp, &envelope)
		if resp.StatusCode != tc.want {
			t.Fatalf("submit %q status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
		if envelope.Code == "" || envelope.Message == "" || envelope.Legacy == "" {
			t.Fatalf("submit %q error envelope %+v missing fields", tc.body, envelope)
		}
		if tc.want == http.StatusUnprocessableEntity && envelope.Code != "unknown_kind" {
			t.Fatalf("submit %q code %q, want unknown_kind", tc.body, envelope.Code)
		}
	}
	for _, path := range []string{"/v1/jobs/job-9999", "/v1/jobs/job-9999/result"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServerResultNotReady answers 409 with a retryable job_not_finished
// envelope (carrying the live progress) while the job is still queued or
// running.
func TestServerResultNotReady(t *testing.T) {
	release := make(chan struct{})
	srv, _ := testServer(t, QueueOptions{
		Workers: 1,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			<-release
			return &JobResult{Coverage: 1}, nil
		},
	})
	defer close(release)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decode(t, resp, &job)
	resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result status %d, want 409", resp.StatusCode)
	}
	var envelope struct {
		Code      string         `json:"code"`
		Retryable bool           `json:"retryable"`
		Detail    map[string]any `json:"detail"`
	}
	decode(t, resp, &envelope)
	if envelope.Code != "job_not_finished" || !envelope.Retryable {
		t.Fatalf("early result envelope %+v, want retryable job_not_finished", envelope)
	}
	if envelope.Detail["state"] == nil {
		t.Fatalf("early result envelope %+v lacks the job state detail", envelope)
	}
}

// TestServerV1Surface: the versioned routes answer, /v1/meta documents
// the contract, and the removed legacy aliases answer 404 with a Link
// to the /v1 successor.
func TestServerV1Surface(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{Workers: 1})

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":32}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("v1 submit status %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Fatal("/v1 route carries a Deprecation header")
	}
	var job Job
	decode(t, resp, &job)
	for _, path := range []string{"/v1/jobs", "/v1/jobs/" + job.ID, "/v1/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d", path, resp.StatusCode)
		}
	}

	resp, err = http.Get(srv.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Service      string   `json:"service"`
		APIVersion   string   `json:"api_version"`
		JobKinds     []string `json:"job_kinds"`
		Capabilities []string `json:"capabilities"`
		Designs      []string `json:"designs"`
	}
	decode(t, resp, &meta)
	if meta.Service != "sbstd" || meta.APIVersion != "v1" || len(meta.JobKinds) != 7 {
		t.Fatalf("meta %+v", meta)
	}
	if !slices.Contains(meta.Capabilities, "designs") {
		t.Fatalf("meta capabilities %v lack designs", meta.Capabilities)
	}
	if !slices.Contains(meta.Designs, "dsp") || !slices.Contains(meta.Designs, "bench/s27") {
		t.Fatalf("meta designs %v lack the bundled IDs", meta.Designs)
	}

	// The unversioned aliases are gone: 404 with a Link header naming
	// the successor route, and no Deprecation header (nothing left to
	// deprecate).
	for _, path := range []string{"/jobs", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("removed legacy GET %s status %d, want 404", path, resp.StatusCode)
		}
		if link := resp.Header.Get("Link"); !strings.Contains(link, "/v1"+path) || !strings.Contains(link, "successor-version") {
			t.Fatalf("removed legacy GET %s Link header %q does not name the /v1 successor", path, link)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Fatalf("removed legacy GET %s still carries a Deprecation header", path)
		}
	}
	resp, err = http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":32}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed legacy POST /jobs status %d, want 404", resp.StatusCode)
	}
}

// TestServerSpecMismatch: a sub-spec on the wrong kind is a 422
// spec_mismatch — the kind-safety half of the /v1 contract.
func TestServerSpecMismatch(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{Workers: 1})

	for _, body := range []string{
		`{"kind":"fault_sim","vectors":{"kind":"bist","count":32},"ga":{"population":4}}`,
		`{"kind":"fault_sim","vectors":{"kind":"bist","count":32},"online":{"intervals":2}}`,
		`{"kind":"online_burst","ga":{"population":4}}`,
		`{"kind":"ga_search","vectors":{"kind":"bist","count":32}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Code      string `json:"code"`
			Retryable bool   `json:"retryable"`
		}
		decode(t, resp, &envelope)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("submit %q status %d, want 422", body, resp.StatusCode)
		}
		if envelope.Code != "spec_mismatch" || envelope.Retryable {
			t.Fatalf("submit %q envelope %+v, want non-retryable spec_mismatch", body, envelope)
		}
	}
}

// TestServerListPagination drives GET /v1/jobs cursor pagination and
// the kind/state filters against a queue of parked jobs.
func TestServerListPagination(t *testing.T) {
	release := make(chan struct{})
	srv, q := testServer(t, QueueOptions{
		Workers: 1, MaxPending: 16,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			<-release
			return &JobResult{}, nil
		},
	})
	defer close(release)
	var ids []string
	for i := 0; i < 5; i++ {
		spec := JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: api.VecBIST, Count: 8}}
		if i == 4 {
			spec = JobSpec{Kind: JobGaSearch, Ga: &api.GaSpec{Population: 4}}
		}
		j, err := q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	page := func(query string) (api.JobList, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		var l api.JobList
		code := resp.StatusCode
		if code == http.StatusOK {
			decode(t, resp, &l)
		} else {
			resp.Body.Close()
		}
		return l, code
	}

	// Walk in pages of 2: 2 + 2 + 1, stable submission order.
	var walked []string
	after := ""
	for {
		query := "?limit=2"
		if after != "" {
			query += "&after=" + after
		}
		l, code := page(query)
		if code != http.StatusOK {
			t.Fatalf("page %q status %d", query, code)
		}
		if len(l.Jobs) > 2 {
			t.Fatalf("page %q has %d jobs, want <= 2", query, len(l.Jobs))
		}
		for _, j := range l.Jobs {
			walked = append(walked, j.ID)
		}
		if l.NextAfter == "" {
			break
		}
		after = l.NextAfter
	}
	if !slices.Equal(walked, ids) {
		t.Fatalf("paged walk %v, want %v", walked, ids)
	}

	// Kind filter.
	l, code := page("?kind=ga_search")
	if code != http.StatusOK || len(l.Jobs) != 1 || l.Jobs[0].ID != ids[4] {
		t.Fatalf("kind filter: code %d jobs %+v", code, l.Jobs)
	}
	if l.NextAfter != "" {
		t.Fatalf("exhausted filter page has next_after %q", l.NextAfter)
	}

	// Bad inputs: unknown kind 422, bad state/limit/cursor 400.
	if _, code := page("?kind=bogus"); code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown kind filter status %d, want 422", code)
	}
	for _, q := range []string{"?state=bogus", "?limit=x", "?limit=-1", "?after=job-9999"} {
		if _, code := page(q); code != http.StatusBadRequest {
			t.Fatalf("list %q status %d, want 400", q, code)
		}
	}
}

// TestServerUnknownDesign: a spec naming a design the registry cannot
// build is rejected at submission with 422 unknown_design, both as the
// top-level design field and inside a matrix; a known non-default
// design is accepted.
func TestServerUnknownDesign(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{Workers: 1})

	for _, body := range []string{
		`{"kind":"fault_sim","design":"bench/ghost","vectors":{"kind":"bist","count":32}}`,
		`{"kind":"fault_sim","design":"fam/w99r4s1l1p1","vectors":{"kind":"bist","count":32}}`,
		`{"kind":"campaign_matrix","matrix":{"designs":["dsp","bench/ghost"],"schemes":[{"kind":"bist","count":32}]}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable bool   `json:"retryable"`
		}
		decode(t, resp, &envelope)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("submit %q status %d, want 422", body, resp.StatusCode)
		}
		if envelope.Code != "unknown_design" || envelope.Retryable {
			t.Fatalf("submit %q envelope %+v, want non-retryable unknown_design", body, envelope)
		}
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","design":"bench/s27","vectors":{"kind":"bist","count":32}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("known design rejected: status %d, want 202", resp.StatusCode)
	}
}

// TestServerLeaseEndpoints drives the worker protocol over HTTP:
// acquire → heartbeat → upload against a live pool, plus the
// jobs-only-server and no-work answers.
func TestServerLeaseEndpoints(t *testing.T) {
	// Without a pool, lease routes answer 503.
	bare, _ := testServer(t, QueueOptions{Workers: 1})
	resp, err := http.Post(bare.URL+"/v1/leases", "application/json",
		strings.NewReader(`{"worker_id":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lease acquire without a pool = %d, want 503", resp.StatusCode)
	}

	pool := NewLeasePool(PoolOptions{TTL: time.Second})
	defer pool.Close()
	q := NewQueue(QueueOptions{Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		return &JobResult{}, nil
	}})
	q.Start()
	srv := httptest.NewServer(NewServerWith(q, ServerOptions{Pool: pool}))
	t.Cleanup(srv.Close)

	// No registered work: 204.
	resp, err = http.Post(srv.URL+"/v1/leases", "application/json",
		strings.NewReader(`{"worker_id":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("lease acquire with no work = %d, want 204", resp.StatusCode)
	}

	h, err := pool.Register("job-7", poolSpec(), 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/leases", "application/json",
		strings.NewReader(`{"worker_id":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease acquire = %d, want 200", resp.StatusCode)
	}
	var lease struct {
		ID   string `json:"id"`
		Unit struct {
			FaultLo int `json:"fault_lo"`
			FaultHi int `json:"fault_hi"`
		} `json:"unit"`
		TTLMillis int `json:"ttl_ms"`
	}
	decode(t, resp, &lease)
	if lease.ID == "" || lease.Unit.FaultHi != 8 || lease.TTLMillis <= 0 {
		t.Fatalf("lease %+v", lease)
	}

	hb, _ := json.Marshal(map[string]any{"worker_id": "w1", "progress": map[string]int{"done": 4}})
	resp, err = http.Post(srv.URL+"/v1/leases/"+lease.ID+"/heartbeat", "application/json", strings.NewReader(string(hb)))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		TTLMillis int `json:"ttl_ms"`
	}
	decode(t, resp, &ack)
	if ack.TTLMillis <= 0 {
		t.Fatalf("heartbeat ack %+v", ack)
	}

	up, _ := json.Marshal(identityResult("w1", toWorkUnit(t, pool, lease.ID), 16))
	resp, err = http.Post(srv.URL+"/v1/leases/"+lease.ID+"/result", "application/json", strings.NewReader(string(up)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("result upload = %d, want 204", resp.StatusCode)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The lease is spent: further calls answer 409 lease_gone.
	resp, err = http.Post(srv.URL+"/v1/leases/"+lease.ID+"/fail", "application/json",
		strings.NewReader(`{"worker_id":"w1","reason":"late"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fail on spent lease = %d, want 409", resp.StatusCode)
	}
	var envelope struct {
		Code string `json:"code"`
	}
	decode(t, resp, &envelope)
	if envelope.Code != "lease_gone" {
		t.Fatalf("fail on spent lease code %q, want lease_gone", envelope.Code)
	}
}

// toWorkUnit fetches the wire unit behind a granted lease.
func toWorkUnit(t *testing.T, p *LeasePool, leaseID string) api.WorkUnit {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.leases[leaseID]
	if !ok {
		t.Fatalf("lease %s not in pool", leaseID)
	}
	return l.wire()
}

// TestServerGracefulDrain: during a drain, running work finishes,
// submissions get 503 and healthz reports draining.
func TestServerGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv, q := testServer(t, QueueOptions{
		Workers: 1,
		Exec: func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
			started <- struct{}{}
			<-release
			return &JobResult{Coverage: 0.5}, nil
		},
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decode(t, resp, &job)
	<-started

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	waitDraining := time.Now().Add(5 * time.Second)
	for !q.Draining() {
		if time.Now().After(waitDraining) {
			t.Fatal("queue never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct{ Status string }
	decode(t, resp, &health)
	if health.Status != "draining" {
		t.Fatalf("health status %q during drain", health.Status)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(job.ID)
	if got.State != JobCompleted {
		t.Fatalf("job state %s after graceful drain, want completed", got.State)
	}
}

// TestServerRealFaultSimJob runs one genuine sharded campaign through
// the HTTP surface against the gate-level core.
func TestServerRealFaultSimJob(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign in -short mode")
	}
	srv, _ := testServer(t, QueueOptions{
		Workers: 1,
		Exec:    NewExecutor(ExecConfig{Workers: 4}),
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":1024,"seed":1},"workers":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decode(t, resp, &job)
	deadline := time.Now().Add(2 * time.Minute)
	for job.State != JobCompleted {
		if job.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job state %s (error %q)", job.State, job.Error)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, &job)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res JobResult
	decode(t, resp, &res)
	if res.Faults == 0 || res.Detected == 0 || res.Coverage <= 0.5 || res.Cycles != 1024 {
		t.Fatalf("implausible campaign result %+v", res)
	}
	fmt.Printf("real campaign: %d/%d faults, coverage %.2f%%\n", res.Detected, res.Faults, 100*res.Coverage)
}
