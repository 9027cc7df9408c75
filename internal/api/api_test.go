package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wireExamples builds one fully populated instance of every /v1
// request and response type, with pinned values, in a fixed order. The
// golden file renders each under its type name, so any field rename,
// retag or type change shows up as a diff — the same schema-pinning
// idea as the checkpoint golden.
func wireExamples() []struct {
	Name string
	Val  any
} {
	created := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	started := created.Add(time.Second)
	finished := created.Add(3 * time.Second)
	spec := JobSpec{
		Kind:        JobNDetect,
		Vectors:     VectorSource{Kind: VecBIST, Count: 4096, Seed: 7},
		Workers:     4,
		NDetect:     5,
		SegmentLen:  128,
		DeadlineSec: 30,
		TraceID:     "9f3a1c2b4d5e6f70",
	}
	unit := WorkUnit{
		JobID: "job-0001", Unit: 1, UnitEnd: 2, Units: 4, Spec: spec,
		FaultLo: 2330, FaultHi: 4660, TotalFaults: 9320,
	}
	return []struct {
		Name string
		Val  any
	}{
		{"JobSpec", spec},
		{"JobSpecDesign", JobSpec{
			Kind:    JobFaultSim,
			Design:  "bench/c432",
			Vectors: VectorSource{Kind: VecBIST, Count: 1024, Seed: 3},
		}},
		{"JobSpecMatrix", JobSpec{
			Kind: JobCampaignMatrix,
			Matrix: &MatrixSpec{
				Designs: []string{"dsp", "bench/s27", "fam/w8r4s1l1p2"},
				Schemes: []VectorSource{
					{Kind: VecBIST, Count: 512, Seed: 1},
					{Kind: VecSelfTest, Iterations: 2},
				},
			},
		}},
		{"JobSpecOnline", JobSpec{
			Kind:     JobOnlineBurst,
			SubmitID: "client-a/burst-42",
			Online: &OnlineSpec{
				Intervals: 8, Iterations: 4, MISRWidth: 24,
				TimeoutCycles: 4096, Policy: "continue", BudgetCycles: 512,
				SelfCheck: true, FaultSeed: 7,
			},
		}},
		{"JobSpecGa", JobSpec{
			Kind:     JobGaSearch,
			SubmitID: "client-a/ga-7",
			Ga: &GaSpec{
				Population: 16, Generations: 8, Seed: 42, Slots: 12,
				Iterations: 150, Elite: 2, Tournament: 3, MutationPct: 15,
			},
		}},
		{"Job", Job{
			ID: "job-0001", Spec: spec, State: JobRunning, Attempts: 1,
			Created: created, Started: &started,
			Progress: Progress{Done: 2048, Total: 4096, Detected: 8000, Remaining: 1320, Coverage: 0.8584},
			Dist:     &DistState{Units: 4, Completed: []int{0, 2}, Attempts: []int{1, 1, 2, 0}},
		}},
		{"JobResult", JobResult{
			Faults: 9320, Detected: 8800, Cycles: 4096, Coverage: 0.9442,
			NDetect: 5, NDetectCoverage: 0.81,
			Sub: map[string]*JobResult{
				"bist_baseline": {Faults: 9320, Detected: 8100, Cycles: 4096, Coverage: 0.8691},
			},
			Seconds: 2.5,
		}},
		{"JobResultSeqATPG", JobResult{
			Faults: 9320, Coverage: 0.62, TestsFound: 410, Untestable: 120, Aborted: 33,
		}},
		{"JobResultOnline", JobResult{
			Cycles: 2200, Coverage: 1.0,
			Online: &OnlineResult{
				Intervals: 8, Passed: 8, Slots: 3, BurstCycles: 2200,
				Schedule: []OnlineIntervalInfo{
					{Index: 0, Cycles: 300, Golden: "00beef"},
					{Index: 1, Cycles: 280, Golden: "00c0de"},
				},
				SelfCheck: &OnlineSelfCheck{
					Component: "multiplier", Bit: 9, Caught: true,
					MismatchedIntervals: []int{2, 3},
				},
			},
			Seconds: 0.8,
		}},
		{"JobResultGa", JobResult{
			Faults: 1500, Detected: 1472, Cycles: 5100, Coverage: 0.9813,
			Ga: &GaResult{
				Population: 16,
				Generations: []GaGeneration{
					{Gen: 0, BestFitness: 0.9520, MeanFitness: 0.8711, BestCoverage: 0.952, BestCycles: 5400},
					{Gen: 1, BestFitness: 0.9813, MeanFitness: 0.9102, BestCoverage: 0.9813, BestCycles: 5100},
				},
				BestGenome: "seed1=0x1a2b seed2=0x3c4 taps=0xd008 reseed=4@0x00ff,0xbeef | MPYA>3 MACB+>5",
				Best: VectorSource{
					Kind: VecProgram, Program: "LD RND,R0\nMPYA R0,R1,R3\nOUT R3\n",
					Seed: 0x1a2b, Seed2: 0x3c4, Iterations: 150,
					Taps: 0xd008, ReseedEvery: 4, Reseeds: []uint64{0x00ff, 0xbeef},
				},
				BestFitness: 0.9813, BestCoverage: 0.9813, BestCycles: 5100,
				Evaluations: 25, CacheHits: 7, ResumedFrom: 1,
			},
			Seconds: 12.5,
		}},
		{"JobResultMatrix", JobResult{
			Faults: 1200, Detected: 1100, Cycles: 1024, Coverage: 0.9167,
			Matrix: []MatrixCell{
				{Design: "dsp", Scheme: VecBIST, SchemeIndex: 0, Faults: 900, Detected: 850, Cycles: 512, Coverage: 0.9444},
				{Design: "bench/s27", Scheme: VecBIST, SchemeIndex: 0, Faults: 300, Detected: 250, Cycles: 512, Coverage: 0.8333},
			},
			Seconds: 4.0,
		}},
		{"JobList", JobList{Jobs: []Job{{
			ID: "job-0002", Spec: JobSpec{Kind: JobSeqATPG, Frames: 3, SampleEvery: 40},
			State: JobFailed, Attempts: 2, Error: "engine: job panic: simulated",
			Created: created, Started: &started, Finished: &finished,
		}}, NextAfter: "job-0002"}},
		{"Progress", Progress{Done: 100, Total: 200, Detected: 50, Remaining: 10, Coverage: 0.833}},
		{"Health", Health{
			Status: "ok",
			Jobs:   map[JobState]int{JobCompleted: 2, JobQueued: 1},
			Leases: &LeaseCounts{Pending: 2, Leased: 1, Done: 5},
		}},
		{"Meta", Meta{
			Service: "sbstd", APIVersion: Version, Versions: []string{Version},
			JobKinds: JobKinds(), VectorKinds: VectorKinds(),
			Capabilities: []string{"jobs", "metrics", "designs", "leases", "events"},
			Designs:      []string{"dsp", "bench/c432", "bench/c880", "bench/s27"},
			Obs: &MetaObs{GateEvals: 123456789, VectorsPerSec: 52000.5,
				HeartbeatP99Millis: 312.5},
		}},
		{"JobEvent", JobEvent{
			Seq: 12, Type: JobEventLease, JobID: "job-0001",
			TraceID: "9f3a1c2b4d5e6f70",
			Lease: &LeaseEvent{Event: "lease_expired", LeaseID: "lease-0003",
				Unit: 1, UnitEnd: 2, WorkerID: "worker-a", Attempt: 2, Reason: "ttl elapsed"},
		}},
		{"JobEventResult", JobEvent{
			Seq: 13, Type: JobEventResult, JobID: "job-0001",
			TraceID: "9f3a1c2b4d5e6f70", State: JobCompleted,
			Result: &JobResult{Faults: 9320, Detected: 8800, Cycles: 4096, Coverage: 0.9442},
		}},
		{"Error", Error{
			Code: CodeJobNotFinished, Message: "job job-0001 is running",
			Retryable: true, Legacy: "job job-0001 is running",
			Detail: map[string]any{"state": "running"},
		}},
		{"LeaseRequest", LeaseRequest{WorkerID: "worker-a"}},
		{"WorkUnit", unit},
		{"Lease", Lease{
			ID: "lease-0003", WorkerID: "worker-a", Unit: unit,
			TTLMillis: 30000, HeartbeatMillis: 10000, Attempt: 1,
		}},
		{"Heartbeat", Heartbeat{WorkerID: "worker-a",
			Progress: Progress{Done: 1024, Total: 4096, Detected: 1800, Remaining: 530}}},
		{"HeartbeatAck", HeartbeatAck{TTLMillis: 30000}},
		{"UnitResult", *NewUnitResult("worker-a",
			[]int32{-1, 0, 17, 4095}, []int32{0, 5, 5, 2}, 4096, 1.25)},
		{"LeaseFailure", LeaseFailure{WorkerID: "worker-a",
			Reason: "chaos: injected error at worker.unit", Retryable: true}},
		{"LeaseCounts", LeaseCounts{Pending: 2, Leased: 1, Done: 5}},
		{"DistState", DistState{Units: 4, Completed: []int{0, 2}, Attempts: []int{1, 1, 2, 0}}},
	}
}

// TestWireGolden pins the JSON schema of every /v1 wire type. A drift
// in any field name, tag, omitempty decision or nesting is a contract
// break and must show up here before it shows up in a mixed-version
// fleet.
func TestWireGolden(t *testing.T) {
	golden := filepath.Join("testdata", "wire.golden.json")
	doc := map[string]any{}
	for _, ex := range wireExamples() {
		doc[ex.Name] = ex.Val
	}
	// encoding/json sorts map keys, so the rendering is deterministic.
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire schema drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWireRoundTrip: every example survives marshal → unmarshal into
// its own type without loss (guards asymmetric tags and unexported
// fields).
func TestWireRoundTrip(t *testing.T) {
	for _, ex := range wireExamples() {
		data, err := json.Marshal(ex.Val)
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		back, err := json.Marshal(roundTrip(t, ex.Name, ex.Val, data))
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		if !bytes.Equal(data, back) {
			t.Errorf("%s lost data in a round trip:\n%s\nvs\n%s", ex.Name, data, back)
		}
	}
}

// roundTrip decodes data into a fresh value of v's dynamic type.
func roundTrip(t *testing.T, name string, v any, data []byte) any {
	t.Helper()
	switch v.(type) {
	case JobSpec:
		return decodeInto[JobSpec](t, name, data)
	case Job:
		return decodeInto[Job](t, name, data)
	case JobResult:
		return decodeInto[JobResult](t, name, data)
	case JobList:
		return decodeInto[JobList](t, name, data)
	case Progress:
		return decodeInto[Progress](t, name, data)
	case Health:
		return decodeInto[Health](t, name, data)
	case Meta:
		return decodeInto[Meta](t, name, data)
	case JobEvent:
		return decodeInto[JobEvent](t, name, data)
	case Error:
		return decodeInto[Error](t, name, data)
	case LeaseRequest:
		return decodeInto[LeaseRequest](t, name, data)
	case WorkUnit:
		return decodeInto[WorkUnit](t, name, data)
	case Lease:
		return decodeInto[Lease](t, name, data)
	case Heartbeat:
		return decodeInto[Heartbeat](t, name, data)
	case HeartbeatAck:
		return decodeInto[HeartbeatAck](t, name, data)
	case UnitResult:
		return decodeInto[UnitResult](t, name, data)
	case LeaseFailure:
		return decodeInto[LeaseFailure](t, name, data)
	case LeaseCounts:
		return decodeInto[LeaseCounts](t, name, data)
	case DistState:
		return decodeInto[DistState](t, name, data)
	default:
		t.Fatalf("%s: no round-trip case for %T", name, v)
		return nil
	}
}

func decodeInto[T any](t *testing.T, name string, data []byte) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// TestKindValidation: the two enums reject unknown values with
// ErrUnknownKind (the 422 path) while structural problems stay plain
// errors (the 400 path).
func TestKindValidation(t *testing.T) {
	if !JobFaultSim.Valid() || !JobExperiment.Valid() || JobKind("bogus").Valid() {
		t.Fatal("JobKind.Valid misclassifies")
	}
	if !slices.Contains(VectorKinds(), VecBIST) || VecSelfTest != "selftest" || slices.Contains(VectorKinds(), "csv") {
		t.Fatal("VectorKinds misclassifies")
	}

	unknownKind := JobSpec{Kind: "bogus"}
	if err := unknownKind.Validate(); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown job kind: %v, want ErrUnknownKind", err)
	}
	unknownVec := JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: "csv"}}
	if err := unknownVec.Validate(); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown vector kind: %v, want ErrUnknownKind", err)
	}
	structural := JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: VecBIST}}
	if err := structural.Validate(); err == nil || errors.Is(err, ErrUnknownKind) {
		t.Fatalf("missing count: %v, want a plain validation error", err)
	}
	ok := JobSpec{Kind: JobFaultSim, Vectors: VectorSource{Kind: VecBIST, Count: 10}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if got, want := len(JobKinds()), 7; got != want {
		t.Fatalf("JobKinds() has %d entries, want %d", got, want)
	}
}

// TestSpecMismatch pins the kind-safety rules: a sub-spec on any kind
// but its own wraps ErrSpecMismatch (the 422 spec_mismatch path), the
// matching kind accepts it, and ga_search rejects a vectors block.
func TestSpecMismatch(t *testing.T) {
	for name, spec := range map[string]JobSpec{
		"matrix on fault_sim": {Kind: JobFaultSim,
			Vectors: VectorSource{Kind: VecBIST, Count: 16},
			Matrix:  &MatrixSpec{Designs: []string{"dsp"}, Schemes: []VectorSource{{Kind: VecSelfTest}}}},
		"online on campaign_matrix": {Kind: JobCampaignMatrix,
			Matrix: &MatrixSpec{Designs: []string{"dsp"}, Schemes: []VectorSource{{Kind: VecSelfTest}}},
			Online: &OnlineSpec{Intervals: 4}},
		"ga on online_burst": {Kind: JobOnlineBurst, Ga: &GaSpec{Population: 4}},
		"ga on seq_atpg":     {Kind: JobSeqATPG, Ga: &GaSpec{}},
		"vectors on ga_search": {Kind: JobGaSearch,
			Vectors: VectorSource{Kind: VecBIST, Count: 16}},
	} {
		if err := spec.Validate(); !errors.Is(err, ErrSpecMismatch) {
			t.Errorf("%s: %v, want ErrSpecMismatch", name, err)
		}
	}
	for name, spec := range map[string]JobSpec{
		"bare ga_search":   {Kind: JobGaSearch},
		"sized ga_search":  {Kind: JobGaSearch, Ga: &GaSpec{Population: 8, Generations: 3, Seed: 9}},
		"bare online":      {Kind: JobOnlineBurst},
		"online with spec": {Kind: JobOnlineBurst, Online: &OnlineSpec{Intervals: 4}},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	for name, spec := range map[string]JobSpec{
		"negative population": {Kind: JobGaSearch, Ga: &GaSpec{Population: -1}},
		"population cap":      {Kind: JobGaSearch, Ga: &GaSpec{Population: 1000}},
		"elite > population":  {Kind: JobGaSearch, Ga: &GaSpec{Population: 4, Elite: 8}},
		"mutation > 100":      {Kind: JobGaSearch, Ga: &GaSpec{MutationPct: 101}},
	} {
		if err := spec.Validate(); err == nil || errors.Is(err, ErrSpecMismatch) {
			t.Errorf("%s: %v, want a plain validation error", name, err)
		}
	}
}

// TestVectorSourceLFSRGenes pins the new expansion-gene validation:
// oversized taps and inconsistent reseed schedules are rejected.
func TestVectorSourceLFSRGenes(t *testing.T) {
	base := VectorSource{Kind: VecProgram, Program: "OUT R2"}
	ok := base
	ok.Taps = 0xD008
	ok.ReseedEvery = 4
	ok.Reseeds = []uint64{0xBEEF}
	if err := (&JobSpec{Kind: JobFaultSim, Vectors: ok}).Validate(); err != nil {
		t.Fatalf("valid LFSR genes rejected: %v", err)
	}
	for name, mut := range map[string]func(*VectorSource){
		"taps over 16 bits":      func(v *VectorSource) { v.Taps = 1 << 16 },
		"reseed without seeds":   func(v *VectorSource) { v.ReseedEvery = 4 },
		"seeds without reseed":   func(v *VectorSource) { v.Reseeds = []uint64{1} },
		"negative reseed period": func(v *VectorSource) { v.ReseedEvery = -1; v.Reseeds = []uint64{1} },
	} {
		v := base
		mut(&v)
		if err := (&JobSpec{Kind: JobFaultSim, Vectors: v}).Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMatrixValidation pins the campaign_matrix spec rules: the matrix
// block is mandatory and non-empty, duplicate designs are rejected,
// and each scheme is validated like a top-level stimulus source.
func TestMatrixValidation(t *testing.T) {
	ok := JobSpec{Kind: JobCampaignMatrix, Matrix: &MatrixSpec{
		Designs: []string{"dsp", "bench/s27"},
		Schemes: []VectorSource{{Kind: VecBIST, Count: 64}, {Kind: VecSelfTest}},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid matrix spec rejected: %v", err)
	}
	for name, spec := range map[string]JobSpec{
		"no matrix":  {Kind: JobCampaignMatrix},
		"no designs": {Kind: JobCampaignMatrix, Matrix: &MatrixSpec{Schemes: []VectorSource{{Kind: VecSelfTest}}}},
		"no schemes": {Kind: JobCampaignMatrix, Matrix: &MatrixSpec{Designs: []string{"dsp"}}},
		"dup design": {Kind: JobCampaignMatrix, Matrix: &MatrixSpec{Designs: []string{"dsp", "dsp"}, Schemes: []VectorSource{{Kind: VecSelfTest}}}},
		"bad scheme": {Kind: JobCampaignMatrix, Matrix: &MatrixSpec{Designs: []string{"dsp"}, Schemes: []VectorSource{{Kind: VecBIST}}}},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	badScheme := JobSpec{Kind: JobCampaignMatrix, Matrix: &MatrixSpec{
		Designs: []string{"dsp"}, Schemes: []VectorSource{{Kind: "csv"}},
	}}
	if err := badScheme.Validate(); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown scheme kind: %v, want ErrUnknownKind", err)
	}
}

// TestPackInt32RoundTrip covers the bitmap wire format: pack/unpack
// identity, checksum stability, and corruption detection.
func TestPackInt32RoundTrip(t *testing.T) {
	in := []int32{-1, 0, 1, 42, -7, 1 << 30}
	out, err := UnpackInt32(PackInt32(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip [%d] = %d, want %d", i, out[i], in[i])
		}
	}
	if _, err := UnpackInt32("@@@not-base64@@@"); err == nil {
		t.Fatal("bad base64 accepted")
	}
	if _, err := UnpackInt32(PackInt32(in)[:6]); err == nil {
		t.Fatal("truncated payload accepted")
	}

	res := NewUnitResult("w", in, nil, 100, 0)
	if _, _, err := res.Unpack(); err != nil {
		t.Fatalf("clean unpack: %v", err)
	}
	// Flip one bit in the payload: the checksum must catch it.
	bad := *res
	bad.DetectedAt = PackInt32([]int32{-1, 0, 1, 42, -7, (1 << 30) ^ 4})
	if _, _, err := bad.Unpack(); err == nil {
		t.Fatal("corrupted payload passed the checksum")
	}
}
