package engine

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

func publishN(b *JobEventBroker, jobID string, n int) {
	for i := 0; i < n; i++ {
		b.Publish(api.JobEvent{Type: api.JobEventProgress, JobID: jobID})
	}
}

func TestBrokerReplayAndSeq(t *testing.T) {
	b := NewJobEventBroker()
	publishN(b, "j1", 5)

	replay, _, cancel := b.Subscribe("j1", 0)
	cancel()
	if len(replay) != 5 {
		t.Fatalf("replay %d events, want 5", len(replay))
	}
	for i, ev := range replay {
		if ev.Seq != int64(i+1) {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}

	replay, _, cancel = b.Subscribe("j1", 3)
	cancel()
	if len(replay) != 2 || replay[0].Seq != 4 || replay[1].Seq != 5 {
		t.Fatalf("resume replay %+v, want seq 4,5", replay)
	}

	// Jobs do not share sequences.
	b.Publish(api.JobEvent{Type: api.JobEventState, JobID: "j2"})
	replay, _, cancel = b.Subscribe("j2", 0)
	cancel()
	if len(replay) != 1 || replay[0].Seq != 1 {
		t.Fatalf("j2 replay %+v, want one event with seq 1", replay)
	}
}

func TestBrokerLiveDelivery(t *testing.T) {
	b := NewJobEventBroker()
	replay, ch, cancel := b.Subscribe("j1", 0)
	defer cancel()
	if len(replay) != 0 {
		t.Fatalf("unexpected replay %+v", replay)
	}
	b.Publish(api.JobEvent{Type: api.JobEventProgress, JobID: "j1"})
	select {
	case ev := <-ch:
		if ev.Seq != 1 || ev.Type != api.JobEventProgress {
			t.Fatalf("live event %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no live delivery")
	}
}

// TestBrokerSlowSubscriber pins the lag contract: a subscriber that
// stops draining is disconnected (channel closed), and re-subscribing
// from its last seen sequence recovers everything from the ring.
func TestBrokerSlowSubscriber(t *testing.T) {
	b := NewJobEventBroker()
	_, ch, cancel := b.Subscribe("j1", 0)
	defer cancel()

	publishN(b, "j1", b.chanBuf+10) // overflow the subscriber buffer

	seen := int64(0)
	closed := false
	for !closed {
		select {
		case ev, open := <-ch:
			if !open {
				closed = true
				break
			}
			seen = ev.Seq
		case <-time.After(time.Second):
			t.Fatal("channel neither delivered nor closed")
		}
	}
	if seen != int64(b.chanBuf) {
		t.Fatalf("drained %d events before close, want %d", seen, b.chanBuf)
	}
	replay, _, cancel2 := b.Subscribe("j1", seen)
	cancel2()
	if len(replay) != 10 || replay[len(replay)-1].Seq != int64(b.chanBuf+10) {
		t.Fatalf("recovery replay %d events ending at %d, want 10 ending at %d",
			len(replay), replay[len(replay)-1].Seq, b.chanBuf+10)
	}
}

func TestBrokerRingTrim(t *testing.T) {
	b := NewJobEventBroker()
	publishN(b, "j1", b.ring+88)
	replay, _, cancel := b.Subscribe("j1", 0)
	cancel()
	if len(replay) != b.ring {
		t.Fatalf("replay %d events, want ring size %d", len(replay), b.ring)
	}
	if replay[0].Seq != 89 || replay[len(replay)-1].Seq != int64(b.ring+88) {
		t.Fatalf("ring window [%d,%d], want [89,%d]", replay[0].Seq, replay[len(replay)-1].Seq, b.ring+88)
	}
}

func TestBrokerNilSafe(t *testing.T) {
	var b *JobEventBroker
	b.Publish(api.JobEvent{JobID: "x"}) // must not panic
}

// jsonEq compares two values by canonical JSON (JobResult carries a
// map of sub-results, so it is not directly comparable).
func jsonEq(t *testing.T, a, b any) bool {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(aj) == string(bj)
}

// sseFrame is one parsed frame off the wire.
type sseFrame struct {
	id    string
	event string
	data  api.JobEvent
}

// readSSE parses frames until the terminal result frame or EOF.
func readSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	var data string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				if err := json.Unmarshal([]byte(data), &cur.data); err != nil {
					t.Fatalf("bad SSE payload %q: %v", data, err)
				}
				frames = append(frames, cur)
				if cur.data.Type == api.JobEventResult {
					return frames
				}
			}
			cur, data = sseFrame{}, ""
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames
}

// testEventServer wires one broker through queue and server.
func testEventServer(t *testing.T, exec Executor) (*httptest.Server, *Queue, *JobEventBroker) {
	t.Helper()
	broker := NewJobEventBroker()
	q := NewQueue(QueueOptions{Workers: 1, Exec: exec, Events: broker})
	q.Start()
	srv := httptest.NewServer(NewServerWith(q, ServerOptions{Events: broker}))
	t.Cleanup(srv.Close)
	return srv, q, broker
}

// TestServerSSELifecycle follows a job over the wire: the stream must
// deliver ordered state → progress → result frames, and the terminal
// frame must carry the same result as the polled route.
func TestServerSSELifecycle(t *testing.T) {
	srv, _, _ := testEventServer(t, func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		update(Progress{Done: 10, Total: 20, Coverage: 0.5})
		update(Progress{Done: 20, Total: 20, Coverage: 0.9})
		return &JobResult{Coverage: 0.9, Cycles: 20, Faults: 7, Detected: 6}, nil
	})

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":20}}`))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decode(t, resp, &job)
	if job.Spec.TraceID == "" {
		t.Fatal("submit minted no trace ID")
	}

	resp, err = http.Get(srv.URL + api.Prefix + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	frames := readSSE(t, resp.Body)
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want at least submitted-state + result", len(frames))
	}
	if frames[0].data.Type != api.JobEventState {
		t.Fatalf("first frame %+v, want a state event", frames[0].data)
	}
	lastSeq := int64(0)
	for _, f := range frames {
		if f.data.Seq <= lastSeq {
			t.Fatalf("sequence not increasing: %d after %d", f.data.Seq, lastSeq)
		}
		lastSeq = f.data.Seq
		if f.id != fmt.Sprint(f.data.Seq) {
			t.Fatalf("SSE id %q != payload seq %d", f.id, f.data.Seq)
		}
		if f.data.TraceID != job.Spec.TraceID {
			t.Fatalf("frame trace %q, want %q", f.data.TraceID, job.Spec.TraceID)
		}
	}
	final := frames[len(frames)-1].data
	if final.Type != api.JobEventResult || final.State != JobCompleted {
		t.Fatalf("terminal frame %+v", final)
	}

	var polled JobResult
	resp, err = http.Get(srv.URL + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &polled)
	if jsonEq(t, final.Result, polled) != true {
		t.Fatalf("SSE result %+v != polled result %+v", *final.Result, polled)
	}

	// Resume past the end: the synthesized terminal frame answers even
	// though the broker already delivered the stream once.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+api.Prefix+"/jobs/"+job.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(final.Seq))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames = readSSE(t, resp.Body)
	if len(frames) != 1 || frames[0].data.Type != api.JobEventResult {
		t.Fatalf("resume frames %+v, want exactly the terminal frame", frames)
	}
	if jsonEq(t, frames[0].data.Result, polled) != true {
		t.Fatalf("resumed result %+v != polled %+v", *frames[0].data.Result, polled)
	}
}

func TestServerSSEFailedJob(t *testing.T) {
	srv, _, _ := testEventServer(t, func(ctx context.Context, spec JobSpec, update func(Progress)) (*JobResult, error) {
		return nil, fmt.Errorf("boom: synthetic failure")
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fault_sim","vectors":{"kind":"bist","count":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	decode(t, resp, &job)
	resp, err = http.Get(srv.URL + api.Prefix + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSE(t, resp.Body)
	final := frames[len(frames)-1].data
	if final.Type != api.JobEventResult || final.State != JobFailed || !strings.Contains(final.Error, "boom") {
		t.Fatalf("terminal frame %+v, want failed state carrying the error", final)
	}
}

func TestServerSSEUnknownJob(t *testing.T) {
	srv, _, _ := testEventServer(t, nil)
	resp, err := http.Get(srv.URL + api.Prefix + "/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestServerMetricsEndpoint scrapes /v1/metrics and lints the output.
func TestServerMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t, QueueOptions{Workers: 1})
	resp, err := http.Get(srv.URL + api.Prefix + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"sbst_queue_jobs{state=\"queued\"}", "# TYPE sbst_queue_jobs gauge"} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if problems := obs.LintExposition(text); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
}
