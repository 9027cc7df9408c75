package fault

import "testing"

func TestNDetectMatchesSerial(t *testing.T) {
	n := buildAdder(t)
	vecs := randomVectors(80, 9, 21)
	faults := AllFaults(n)
	res, err := Simulate(n, vecs, SimOptions{Faults: faults, NDetect: 5, SegmentLen: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == nil {
		t.Fatal("Detections not populated")
	}
	for i, f := range faults {
		firstFail, want := serialDetectN(n, f, vecs, 5)
		if got := int(res.Detections[i]); got != want {
			t.Errorf("fault %v: detections %d, want %d", f, got, want)
		}
		if got := int(res.DetectedAt[i]); got != firstFail {
			t.Errorf("fault %v: first detection %d, want %d", f, got, firstFail)
		}
	}
}

func TestNDetectCoverageMonotone(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(150, 4, 8)
	res, err := Simulate(n, vecs, SimOptions{NDetect: 8})
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.1
	for k := 1; k <= 8; k++ {
		cov := res.NDetectCoverage(k)
		if cov > prev {
			t.Fatalf("n-detect coverage not monotone at %d: %f > %f", k, cov, prev)
		}
		prev = cov
	}
	// 1-detect coverage must equal plain coverage.
	if got, want := res.NDetectCoverage(1), res.Coverage(); got != want {
		t.Fatalf("1-detect %f != coverage %f", got, want)
	}
}

func TestNDetectDefaultUnchanged(t *testing.T) {
	// Without NDetect the result must match a reference run field by
	// field (regression guard for the drop-logic rework).
	n := buildSeq(t)
	vecs := randomVectors(90, 4, 13)
	faults := AllFaults(n)
	a, err := Simulate(n, vecs, SimOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if a.Detections != nil {
		t.Fatal("Detections should be nil without NDetect")
	}
	for i, f := range faults {
		want := serialDetect(n, f, vecs)
		if int(a.DetectedAt[i]) != want {
			t.Errorf("fault %v: %d want %d", f, a.DetectedAt[i], want)
		}
	}
}
