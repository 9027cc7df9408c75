package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// routeStats is what the traced run learns about one /v1 route from the
// client side of the wire.
type routeStats struct {
	rtt       []time.Duration // request sent → response body closed
	reqBytes  int64
	respBytes int64
	status    map[int]int
}

// wire collects the per-route figures of every routeTripper in a run.
type wire struct {
	mu         sync.Mutex
	routes     map[string]*routeStats
	unitExec   []time.Duration // per lease: grant response → result request
	lastUpload time.Time       // end of the latest POST /v1/leases/{id}/result
	tr         *tracer
}

func newWire(tr *tracer) *wire { return &wire{routes: make(map[string]*routeStats), tr: tr} }

func (w *wire) route(name string) *routeStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	rs := w.routes[name]
	if rs == nil {
		return &routeStats{status: map[int]int{}}
	}
	return rs
}

func (w *wire) lastUploadEnd() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastUpload
}

// client returns an http.Client whose exchanges are recorded under who
// (a load client or one fleet worker). Each worker gets its own, so a
// grant and the upload that follows it can be paired without reading
// bodies.
func (w *wire) client(who string) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second, // what internal/client defaults to
		Transport: &routeTripper{w: w, who: who, next: http.DefaultTransport},
	}
}

// routeTripper records a span and byte counts per /v1 route. It is
// handed to the load clients and, through worker.Options.Client, to the
// fleet workers, so lease, heartbeat and upload costs are measured
// without touching internal/worker.
type routeTripper struct {
	w    *wire
	who  string
	next http.RoundTripper

	mu        sync.Mutex
	lastGrant time.Time
}

const (
	routeAcquire = "POST /v1/leases"
	routeUpload  = "POST /v1/leases/{id}/result"
	routeBeat    = "POST /v1/leases/{id}/heartbeat"
)

// routeOf turns a request into its route pattern: the segment after
// /jobs or /leases is an ID.
func routeOf(method, path string) string {
	parts := strings.Split(path, "/")
	for i := 1; i < len(parts); i++ {
		if parts[i-1] == "jobs" || parts[i-1] == "leases" {
			parts[i] = "{id}"
		}
	}
	return method + " " + strings.Join(parts, "/")
}

func (rt *routeTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req.Method, req.URL.Path)
	start := time.Now()
	if route == routeUpload {
		rt.mu.Lock()
		if !rt.lastGrant.IsZero() {
			rt.w.mu.Lock()
			rt.w.unitExec = append(rt.w.unitExec, start.Sub(rt.lastGrant))
			rt.w.mu.Unlock()
			rt.lastGrant = time.Time{}
		}
		rt.mu.Unlock()
	}
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		rt.done(route, req, start, 0, 0)
		return nil, err
	}
	if route == routeAcquire && resp.StatusCode == http.StatusOK {
		rt.mu.Lock()
		rt.lastGrant = time.Now()
		rt.mu.Unlock()
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, onClose: func(n int64) {
		rt.done(route, req, start, resp.StatusCode, n)
	}}
	return resp, nil
}

func (rt *routeTripper) done(route string, req *http.Request, start time.Time, status int, respBytes int64) {
	end := time.Now()
	w := rt.w
	w.mu.Lock()
	rs := w.routes[route]
	if rs == nil {
		rs = &routeStats{status: map[int]int{}}
		w.routes[route] = rs
	}
	rs.rtt = append(rs.rtt, end.Sub(start))
	rs.reqBytes += max(req.ContentLength, 0)
	rs.respBytes += respBytes
	rs.status[status]++
	if route == routeUpload {
		w.lastUpload = end
	}
	w.mu.Unlock()
	// A request with no trace ID (an idle lease poll) is filed under
	// whoever sent it.
	opID := req.Header.Get("X-Trace-Id")
	if opID == "" {
		opID = rt.who
	}
	w.tr.add(route, opID, 0, start, end, map[string]float64{
		"status": float64(status), "req_bytes": float64(max(req.ContentLength, 0)), "resp_bytes": float64(respBytes),
	})
}

// countingBody reports the bytes read once the body is closed, which is
// when the exchange is over for the caller (an SSE stream stays open
// until its terminal frame).
type countingBody struct {
	io.ReadCloser
	n       int64
	once    sync.Once
	onClose func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.onClose(b.n) })
	return err
}
