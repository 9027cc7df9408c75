package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRouteOf(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/jobs":                      "POST /v1/jobs",
		"/v1/jobs/job-0007/events":      "POST /v1/jobs/{id}/events",
		"/v1/leases":                    "POST /v1/leases",
		"/v1/leases/lease-12/result":    "POST /v1/leases/{id}/result",
		"/v1/leases/lease-12/heartbeat": "POST /v1/leases/{id}/heartbeat",
		"/v1/metrics":                   "POST /v1/metrics",
	} {
		if got := routeOf("POST", path); got != want {
			t.Errorf("routeOf(%s) = %s, want %s", path, got, want)
		}
	}
}

// A grant followed by an upload on one worker's client yields one unit
// time, byte counts per route, and a span per exchange.
func TestRouteTripperPairsGrantAndUpload(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/v1/leases" && r.Header.Get("X-Empty") != "" {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		io.WriteString(w, "0123456789")
	}))
	defer srv.Close()
	tr := newTracer(time.Now())
	w := newWire(tr)
	cl := w.client("w1")
	post := func(path, body, empty string) {
		req, _ := http.NewRequest("POST", srv.URL+path, strings.NewReader(body))
		req.Header.Set("X-Empty", empty)
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post("/v1/leases", "{}", "yes")
	post("/v1/leases", "{}", "")
	post("/v1/leases/l-1/result", "bitmap", "")

	acquire, upload := w.route(routeAcquire), w.route(routeUpload)
	if len(acquire.rtt) != 2 || acquire.status[http.StatusNoContent] != 1 || acquire.status[http.StatusOK] != 1 {
		t.Errorf("acquire: %d exchanges, statuses %v", len(acquire.rtt), acquire.status)
	}
	if len(upload.rtt) != 1 || upload.reqBytes != int64(len("bitmap")) || upload.respBytes != 10 {
		t.Errorf("upload: %d exchanges, %d bytes out, %d bytes in", len(upload.rtt), upload.reqBytes, upload.respBytes)
	}
	if len(w.unitExec) != 1 || w.lastUploadEnd().IsZero() {
		t.Errorf("unit times %v, last upload %v", w.unitExec, w.lastUploadEnd())
	}
	if tr.count() != 3 {
		t.Errorf("%d spans, want 3", tr.count())
	}
}
