package fault

import "testing"

func TestCoverageAtEdgeCases(t *testing.T) {
	// Empty result: every helper must degrade to zero, not divide by
	// zero or panic.
	empty := &Result{}
	if empty.Coverage() != 0 || empty.CoverageAt(100) != 0 || empty.NDetectCoverage(2) != 0 {
		t.Fatal("empty result coverage must be 0")
	}
	if empty.DetectedBy(10) != 0 || empty.Detected() != 0 {
		t.Fatal("empty result detections must be 0")
	}

	n := buildAdder(t)
	vecs := randomVectors(256, 9, 3)
	res, err := Simulate(n, vecs, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Negative cycle: nothing is detected strictly before cycle 0
	// unless a fault fires on the very first vector at cycle 0 — so
	// cycle -1 must always be 0.
	if res.CoverageAt(-1) != 0 {
		t.Errorf("CoverageAt(-1) = %f, want 0", res.CoverageAt(-1))
	}
	// Out-of-range high cycle: clamps to the full-run coverage.
	if got := res.CoverageAt(res.Cycles * 10); got != res.Coverage() {
		t.Errorf("CoverageAt(beyond end) = %f, want %f", got, res.Coverage())
	}
	// CoverageAt is monotone in the cycle argument.
	prev := -1.0
	for _, c := range []int{0, 1, 2, 4, 64, 255, 256, 1 << 20} {
		cov := res.CoverageAt(c)
		if cov < prev {
			t.Fatalf("CoverageAt not monotone at %d", c)
		}
		prev = cov
	}
}

func TestFirstCycleReachingEdgeCases(t *testing.T) {
	empty := &Result{}
	if got := empty.FirstCycleReaching(0); got != 0 {
		t.Errorf("k=0 on empty result: %d, want 0 (trivially reached)", got)
	}
	if got := empty.FirstCycleReaching(1); got != -1 {
		t.Errorf("k=1 on empty result: %d, want -1", got)
	}

	n := buildAdder(t)
	vecs := randomVectors(256, 9, 3)
	res, err := Simulate(n, vecs, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	det := res.Detected()
	if det == 0 {
		t.Fatal("fixture detects nothing")
	}
	if got := res.FirstCycleReaching(det + 1); got != -1 {
		t.Errorf("unreachable k: %d, want -1", got)
	}
	// Consistency with DetectedBy: at the returned cycle, at least k
	// faults are detected; one cycle earlier, fewer than k.
	for _, k := range []int{1, det / 2, det} {
		if k < 1 {
			continue
		}
		c := res.FirstCycleReaching(k)
		if c < 0 {
			t.Fatalf("k=%d unexpectedly unreachable", k)
		}
		if res.DetectedBy(c) < k {
			t.Errorf("k=%d: only %d detected by cycle %d", k, res.DetectedBy(c), c)
		}
		if c > 0 && res.DetectedBy(c-1) >= k {
			t.Errorf("k=%d: cycle %d is not the first (already %d at %d)",
				k, c, res.DetectedBy(c-1), c-1)
		}
	}
	if res.FirstCycleReaching(-3) != 0 {
		t.Error("negative k must be trivially reached at cycle 0")
	}
}

func TestRegionCoverageEdgeCases(t *testing.T) {
	n := buildAdder(t)
	// Empty result against a real netlist: no faults, so both counts
	// are zero for any region.
	empty := &Result{}
	if det, tot := empty.RegionCoverage(n, "nosuchregion"); det != 0 || tot != 0 {
		t.Fatalf("empty result region counts %d/%d", det, tot)
	}
	vecs := randomVectors(256, 9, 3)
	res, err := Simulate(n, vecs, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown region: zero faults fall inside it.
	if det, tot := res.RegionCoverage(n, "nosuchregion"); det != 0 || tot != 0 {
		t.Fatalf("unknown region counts %d/%d", det, tot)
	}
}
