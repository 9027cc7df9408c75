package api

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The lease protocol. A coordinator splits each fault-simulation job's
// collapsed fault list into contiguous work units; workers pull
// contiguous runs of one job's units with time-bounded leases. A run's
// length is the worker's fair share of the pending units: the pending
// units across all jobs divided by the workers the coordinator has
// heard from within the TTL, rounded up. A worker simulates the whole
// run in one call.
//
//	POST /v1/leases                  LeaseRequest → Lease (200) or no work (204)
//	POST /v1/leases/{id}/heartbeat   Heartbeat    → HeartbeatAck; extends the TTL
//	POST /v1/leases/{id}/result      UnitResult   → 200; unit merged
//	POST /v1/leases/{id}/fail        LeaseFailure → 200; unit requeued or job failed
//
// A lease that outlives its TTL without a heartbeat is expired by the
// coordinator: every unit it covers goes back to the pending pool (each
// with its own backoff and attempt charge) and any late call on the old lease answers 409
// lease_gone. Fault independence makes per-fault results invariant
// under partitioning, so the merged campaign is bit-identical to a
// single-process run no matter how units are distributed, retried or
// reassigned.

// LeaseRequest asks the coordinator for a run of work units.
type LeaseRequest struct {
	// WorkerID identifies the requesting worker in logs, lease records
	// and checkpoints. Required.
	WorkerID string `json:"worker_id"`
}

// WorkUnit is the payload of a lease: everything a worker needs to
// reproduce its slice of the coordinator's simulation exactly. The
// worker builds the same gate-level core, collapses the same fault
// list, simulates Faults[FaultLo:FaultHi] against the spec's stimulus
// in one call, and uploads the per-fault detection bitmap.
type WorkUnit struct {
	JobID string `json:"job_id"`
	// Unit is the first covered unit's index in [0, Units), and UnitEnd
	// the exclusive end of the covered run: a lease covers units
	// [Unit, UnitEnd) of the job's Units.
	Unit    int `json:"unit"`
	UnitEnd int `json:"unit_end"`
	Units   int `json:"units"`
	// Spec is the owning job's spec (stimulus source, n-detect target,
	// segment length). Workers must not split the range below: it is
	// authoritative, and the upload covers exactly it.
	Spec JobSpec `json:"spec"`
	// FaultLo/FaultHi bound the covered run's slice of the collapsed
	// fault list (FaultHi is where unit UnitEnd-1 ends), and TotalFaults
	// pins the list length the coordinator saw — a worker whose core
	// build disagrees must refuse the unit.
	FaultLo     int `json:"fault_lo"`
	FaultHi     int `json:"fault_hi"`
	TotalFaults int `json:"total_faults"`
}

// Lease is a granted work unit with its keep-alive contract.
type Lease struct {
	ID       string   `json:"id"`
	WorkerID string   `json:"worker_id"`
	Unit     WorkUnit `json:"unit"`
	// TTLMillis is the lease lifetime; a heartbeat resets the clock.
	TTLMillis int64 `json:"ttl_ms"`
	// HeartbeatMillis is the recommended heartbeat interval (a fraction
	// of the TTL).
	HeartbeatMillis int64 `json:"heartbeat_ms"`
	// Attempt counts prior tries of the covered units: the most any of
	// them has had (0 = first grant of every one).
	Attempt int `json:"attempt"`
}

// Heartbeat keeps a lease alive and reports unit-local progress, which
// the coordinator folds into the job's Progress snapshot (and which
// feeds the queue's stuck-job watchdog).
type Heartbeat struct {
	WorkerID string   `json:"worker_id"`
	Progress Progress `json:"progress"`
}

// HeartbeatAck confirms the extension.
type HeartbeatAck struct {
	TTLMillis int64 `json:"ttl_ms"`
}

// UnitResult uploads a completed unit's detection bitmaps. DetectedAt
// (and Detections for n-detect campaigns) are packed little-endian
// int32 arrays, base64-encoded — see PackInt32 — covering exactly
// [FaultLo, FaultHi). Checksum guards the payload end to end: the
// coordinator recomputes it before merging and rejects mismatches with
// 422 bad_result, so a corrupted upload costs one retry instead of a
// silently wrong campaign.
type UnitResult struct {
	WorkerID string `json:"worker_id"`
	// DetectedAt is the packed per-fault first-detection cycle array
	// (-1 = undetected).
	DetectedAt string `json:"detected_at"`
	// Detections is the packed per-fault detection-count array; empty
	// unless the campaign runs with NDetect > 1.
	Detections string `json:"detections,omitempty"`
	// Cycles is the number of vectors the unit applied (the full
	// sequence length for a completed unit).
	Cycles int `json:"cycles"`
	// Checksum is crc32c over the decoded DetectedAt bytes followed by
	// the decoded Detections bytes.
	Checksum uint32 `json:"checksum"`
	// Seconds is the unit's wall time on the worker (diagnostics).
	Seconds float64 `json:"seconds,omitempty"`
}

// LeaseFailure reports a unit the worker could not finish.
type LeaseFailure struct {
	WorkerID string `json:"worker_id"`
	Reason   string `json:"reason"`
	// Retryable asks the coordinator to requeue the unit (environment
	// trouble) rather than charging it as a hard failure. The unit's
	// attempt budget still applies either way.
	Retryable bool `json:"retryable"`
}

// LeaseCounts is lease-pool occupancy, served inside Health.
type LeaseCounts struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PackInt32 encodes an int32 array as base64(little-endian), the
// detection-bitmap wire format. It keeps a 9.3k-fault unit's upload at
// ~4 bytes per fault before base64 instead of JSON's per-number cost.
func PackInt32(v []int32) string {
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// UnpackInt32 decodes PackInt32's output.
func UnpackInt32(s string) ([]int32, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("api: bad packed int32 array: %w", err)
	}
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("api: packed int32 array has %d bytes, not a multiple of 4", len(buf))
	}
	v := make([]int32, len(buf)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return v, nil
}

// ChecksumInt32 is the crc32c the UnitResult.Checksum field carries:
// computed over the little-endian bytes of detectedAt, then detections.
func ChecksumInt32(detectedAt, detections []int32) uint32 {
	h := crc32.New(castagnoli)
	var word [4]byte
	for _, x := range detectedAt {
		binary.LittleEndian.PutUint32(word[:], uint32(x))
		h.Write(word[:])
	}
	for _, x := range detections {
		binary.LittleEndian.PutUint32(word[:], uint32(x))
		h.Write(word[:])
	}
	return h.Sum32()
}

// NewUnitResult packs a unit's detection arrays into the wire form,
// checksum included.
func NewUnitResult(workerID string, detectedAt, detections []int32, cycles int, seconds float64) *UnitResult {
	r := &UnitResult{
		WorkerID:   workerID,
		DetectedAt: PackInt32(detectedAt),
		Cycles:     cycles,
		Checksum:   ChecksumInt32(detectedAt, detections),
		Seconds:    seconds,
	}
	if detections != nil {
		r.Detections = PackInt32(detections)
	}
	return r
}

// Unpack decodes and checksum-verifies the result's bitmaps, returning
// the per-fault arrays.
func (r *UnitResult) Unpack() (detectedAt, detections []int32, err error) {
	detectedAt, err = UnpackInt32(r.DetectedAt)
	if err != nil {
		return nil, nil, err
	}
	if r.Detections != "" {
		detections, err = UnpackInt32(r.Detections)
		if err != nil {
			return nil, nil, err
		}
	}
	if got := ChecksumInt32(detectedAt, detections); got != r.Checksum {
		return nil, nil, fmt.Errorf("api: unit result checksum mismatch: computed %08x, upload says %08x", got, r.Checksum)
	}
	return detectedAt, detections, nil
}
