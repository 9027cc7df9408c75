package engine

import (
	"repro/internal/api"
)

// The job wire types live in internal/api — the single versioned
// contract shared by the server, the client package and the worker
// fleet. The engine aliases them so the queue, executor and log
// code (and their long-standing callers) keep reading naturally;
// nothing here defines schema.

// The campaign kinds the executor understands.
const (
	JobFaultSim       = api.JobFaultSim
	JobNDetect        = api.JobNDetect
	JobSeqATPG        = api.JobSeqATPG
	JobExperiment     = api.JobExperiment
	JobCampaignMatrix = api.JobCampaignMatrix
	JobOnlineBurst    = api.JobOnlineBurst
	JobGaSearch       = api.JobGaSearch
)

// VectorSource describes where a job's stimulus stream comes from; its
// Kind field is the validated api.VectorKind enum.
type VectorSource = api.VectorSource

// JobSpec is the typed request submitted to the queue (the
// POST /v1/jobs body). Validate rejects unknown kinds with
// api.ErrUnknownKind so the server can answer 422 at submission.
type JobSpec = api.JobSpec

// JobState is a job's lifecycle position:
// queued → running → completed | failed.
type JobState = api.JobState

// The lifecycle states.
const (
	JobQueued    = api.JobQueued
	JobRunning   = api.JobRunning
	JobCompleted = api.JobCompleted
	JobFailed    = api.JobFailed
)

// Progress is a live campaign snapshot.
type Progress = api.Progress

// JobResult is a completed campaign's headline numbers.
type JobResult = api.JobResult

// Job is one queue entry. The queue hands out value copies; the Result
// pointer is written once before the job reaches a terminal state and
// never mutated afterwards.
type Job = api.Job

// DistState is a running job's distributed execution snapshot (unit
// completion and attempt counts), filled by QueueOptions.DistState.
type DistState = api.DistState
