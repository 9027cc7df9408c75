package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// setPlant installs a plant hook for one test.
func setPlant(t *testing.T, hook func(s *segment, b int)) {
	t.Helper()
	plant = hook
	t.Cleanup(func() { plant = nil })
}

// TestAuditCatchesPlantedCorruption plants one wrong result per run —
// a flipped flip-flop in a survivor's exit state, or a detection cycle
// written for a fault the batch did not detect — in one window of the
// first segment, and expects the audit to report exactly that window
// whenever the sample holds it and nothing otherwise. Over the seeds the
// share caught must match the sample fraction.
func TestAuditCatchesPlantedCorruption(t *testing.T) {
	n := denseCircuit(t, true)
	vecs := gatedVectors(256, 100)
	faults := AllFaults(n)
	const (
		runs  = 240
		frac  = 0.3
		lw    = 2
		width = 63 * lw
	)
	batches := (len(faults) + width - 1) / width
	if batches < 3 {
		t.Fatalf("fixture: %d batches, want three or more", batches)
	}
	caught := 0
	for seed := 1; seed <= runs; seed++ {
		batch, word, state := seed%batches, seed/batches%lw, seed%2 == 0
		if batch == batches-1 && word*63 >= len(faults)-batch*width {
			word = 0 // the last batch's second word may be empty
		}
		planted := false
		setPlant(t, func(s *segment, b int) {
			if s.start != 0 || b != batch {
				return
			}
			// In the first segment the fault list is in lane order, so a
			// survivor's lane is its fault index less the batch's start.
			from := b * width
			for k := 0; k < s.kept[b]; k++ {
				fi := s.r.remaining[from+k]
				if (fi-from)/63 != word {
					continue
				}
				if state {
					s.r.states[from+k][0] ^= 1
				} else {
					s.r.res.DetectedAt[fi] = int32(s.start)
				}
				planted = true
				return
			}
		})
		_, err := Simulate(n, vecs, SimOptions{Faults: faults, SegmentLen: 64, LaneWords: lw,
			ShadowSample: frac, ShadowSeed: int64(seed)})
		if !planted {
			t.Fatalf("seed %d: no survivor of batch %d word %d to corrupt", seed, batch, word)
		}
		sampled := windowSampled(frac, uint64(seed), 0, batch, word)
		var div *DivergenceError
		switch {
		case !sampled && err != nil:
			t.Fatalf("seed %d: unsampled window (0, %d, %d) yet Simulate returned %v", seed, batch, word, err)
		case sampled && !errors.As(err, &div):
			t.Fatalf("seed %d: corrupted %s in sampled window (0, %d, %d) not caught (err %v)",
				seed, map[bool]string{true: "exit state", false: "detection cycle"}[state], batch, word, err)
		case sampled && (div.Segment != 0 || div.Batch != batch || div.Word != word || div.Divergent != 1 || len(div.Lanes) != 1):
			t.Fatalf("seed %d: planted in (0, %d, %d), reported %+v", seed, batch, word, div)
		case sampled:
			caught++
		}
	}
	mean, sd := runs*frac, math.Sqrt(runs*frac*(1-frac))
	if math.Abs(float64(caught)-mean) > 4*sd {
		t.Fatalf("caught %d of %d planted corruptions; a %.2f sample predicts %.0f ± %.0f", caught, runs, frac, mean, 4*sd)
	}
}

// TestAuditCleanRunsAgree audits every window of random netlists at
// segment lengths 1, 7 and the default, at GOMAXPROCS 1 and 4, with
// first detection and three: a correct kernel must draw no divergence,
// and the audited result must be the unaudited one.
func TestAuditCleanRunsAgree(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)*104729 + 11))
		n, err := logictest.RandomNetlist(rng, seed%3 != 0)
		if err != nil {
			t.Fatal(err)
		}
		vecs := make(Vectors, 48+rng.Intn(120))
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		for _, procs := range []int{1, 4} {
			for _, segLen := range []int{1, 7, 0} {
				for _, ndet := range []int{1, 3} {
					opts := SimOptions{Faults: AllFaults(n), SegmentLen: segLen, NDetect: ndet, LaneWords: 1 + seed%3}
					what := fmt.Sprintf("netlist %d, GOMAXPROCS %d, segment %d, ndetect %d", seed, procs, segLen, ndet)
					checkAuditAgrees(t, what, procs, n, vecs, opts)
				}
			}
		}
	}
}

func checkAuditAgrees(t *testing.T, what string, procs int, n *logic.Netlist, vecs Vectors, opts SimOptions) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	opts.ShadowSample = -1
	want, err := Simulate(n, vecs, opts)
	if err != nil {
		t.Fatalf("%s, unaudited: %v", what, err)
	}
	opts.ShadowSample = 1
	got, err := Simulate(n, vecs, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range want.DetectedAt {
		if got.DetectedAt[i] != want.DetectedAt[i] || want.Detections != nil && got.Detections[i] != want.Detections[i] {
			t.Fatalf("%s: fault %d differs once audited", what, i)
		}
	}
}
