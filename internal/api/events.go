package api

// Job event stream wire types: GET /v1/jobs/{id}/events serves these
// as Server-Sent Events, one JSON-encoded JobEvent per frame, with the
// SSE id field set to Seq and the SSE event field set to Type. A
// client resumes after a dropped connection by sending the last Seq it
// saw as the Last-Event-ID header (or ?after= query parameter); the
// server replays everything newer from its per-job ring.

// JobEvent types. A stream always terminates with one result event.
const (
	// JobEventState reports a lifecycle transition (queued, running,
	// back to queued on a retry).
	JobEventState = "state"
	// JobEventProgress is a throttled progress sample.
	JobEventProgress = "progress"
	// JobEventLease reports lease traffic on a distributed job.
	JobEventLease = "lease"
	// JobEventResult is the terminal frame: the job completed (Result
	// set) or failed (Error set). The stream closes after it.
	JobEventResult = "result"
)

// JobEvent is one frame of a job's event stream.
type JobEvent struct {
	// Seq is the event's position in the job's stream, strictly
	// increasing from 1. Feed it back as Last-Event-ID to resume.
	Seq int64 `json:"seq"`
	// Type is one of the JobEvent* constants.
	Type string `json:"type"`
	// JobID names the job.
	JobID string `json:"job_id"`
	// TraceID is the job's campaign trace ID.
	TraceID string `json:"trace_id,omitempty"`
	// State is the lifecycle state after a state transition.
	State JobState `json:"state,omitempty"`
	// Progress accompanies progress events.
	Progress *Progress `json:"progress,omitempty"`
	// Result accompanies the terminal event of a completed job. It is
	// the same payload GET /v1/jobs/{id}/result serves.
	Result *JobResult `json:"result,omitempty"`
	// Error accompanies the terminal event of a failed job.
	Error string `json:"error,omitempty"`
	// Lease accompanies lease events.
	Lease *LeaseEvent `json:"lease,omitempty"`
}

// LeaseEvent is the lease-traffic payload of a lease-typed JobEvent.
type LeaseEvent struct {
	// Event is the lease transition: granted, completed, or a requeue
	// reason (lease_expired, worker_failure, bad_result, or
	// unit_exhausted when the unit's attempt budget ran out).
	Event string `json:"event"`
	// LeaseID names the lease, when one was involved.
	LeaseID string `json:"lease_id,omitempty"`
	// Unit is the first work-unit index the event covers, and UnitEnd
	// the exclusive end: a grant or completion covers the lease's whole
	// run, a requeue event one unit (UnitEnd = Unit+1).
	Unit    int `json:"unit"`
	UnitEnd int `json:"unit_end"`
	// WorkerID names the worker holding or losing the lease.
	WorkerID string `json:"worker_id,omitempty"`
	// Attempt is the unit's attempt number at the time of the event.
	Attempt int `json:"attempt,omitempty"`
	// Reason carries failure detail on requeue events.
	Reason string `json:"reason,omitempty"`
}
