package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: 2, StartNS: 10, EndNS: 40},  // grandchild: not the root's business
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 0, 3: 30, 4: 30, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.open("op", "a", 0, time.Now())
	tr.close(id, time.Now(), nil)
	ran := false
	if d := tr.timed("f", "a", id, func() { ran = true }); !ran || d < 0 {
		t.Errorf("timed on a nil tracer: ran %v, took %v", ran, d)
	}
	if id != 0 || tr.count() != 0 {
		t.Errorf("nil tracer recorded: id %d, count %d", id, tr.count())
	}
}

func TestParentlessSpanHangsUnderItsOp(t *testing.T) {
	now := time.Now()
	tr := newTracer(now)
	job := tr.open("job", "trace-1", 0, now)
	http := tr.add("POST /v1/jobs", "trace-1", 0, now, now.Add(time.Millisecond), nil)
	other := tr.add("POST /v1/leases", "", 0, now, now, nil)
	tr.close(job, now.Add(2*time.Millisecond), nil)
	if got := tr.spans[http-1].Parent; got != job {
		t.Errorf("round-trip's parent = %d, want the job span %d", got, job)
	}
	if got := tr.spans[other-1].Parent; got != 0 {
		t.Errorf("span of no op got parent %d", got)
	}
	if self := selfTimes(tr.spans)[job]; self != int64(time.Millisecond) {
		t.Errorf("job self time = %d", self)
	}
}
