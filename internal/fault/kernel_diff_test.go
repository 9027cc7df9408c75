package fault

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// randCircuit builds a random sequential netlist that exercises every
// compiled-kernel code path (see logictest.RandomNetlist).
func randCircuit(t *testing.T, rng *rand.Rand, fb bool) *logic.Netlist {
	t.Helper()
	n, err := logictest.RandomNetlist(rng, fb)
	if err != nil {
		t.Fatalf("random netlist build: %v", err)
	}
	return n
}

// TestLaneRetirementMultiWord pins the retirement path with stripes
// wider than one word: a circuit with well over 63 collapsed faults at
// NDetect=2 retires lanes in every stripe word mid-segment, and the
// results must stay bit-identical to the reference kernel. The fuzz
// test can wander into this; this test guarantees it runs.
func TestLaneRetirementMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b := logic.NewBuilder()
	var nets []logic.NetID
	for i := 0; i < 8; i++ {
		nets = append(nets, b.Input(string(rune('a'+i))))
	}
	for i := 0; i < 120; i++ {
		x := nets[rng.Intn(len(nets))]
		y := nets[rng.Intn(len(nets))]
		var id logic.NetID
		switch i % 4 {
		case 0:
			id = b.And(x, y)
		case 1:
			id = b.Or(x, y)
		case 2:
			id = b.Xor(x, y)
		default:
			id = b.DFF(x, "")
		}
		nets = append(nets, id)
	}
	for i := 0; i < 4; i++ {
		b.MarkOutput(nets[len(nets)-1-i], string(rune('w'+i)))
	}
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := Collapse(n, AllFaults(n))
	if len(faults) <= 63*2 {
		t.Fatalf("fixture too small to span stripe words: %d faults", len(faults))
	}
	vecs := make(Vectors, 96)
	for i := range vecs {
		vecs[i] = rng.Uint64()
	}
	opts := SimOptions{Faults: faults, NDetect: 2, SegmentLen: 48}
	refOpts, cmpOpts := opts, opts
	refOpts.Kernel = KernelReference
	cmpOpts.Kernel = KernelCompiled
	cmpOpts.LaneWords = 4
	ref, err := Simulate(n, vecs, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Simulate(n, vecs, cmpOpts)
	if err != nil {
		t.Fatal(err)
	}
	retired := 0
	for i := range faults {
		if ref.DetectedAt[i] != cmp.DetectedAt[i] || ref.Detections[i] != cmp.Detections[i] {
			t.Fatalf("fault %d site=%d sa1=%v: ref (at=%d n=%d) vs w=4 (at=%d n=%d)",
				i, faults[i].Site, faults[i].SA1,
				ref.DetectedAt[i], ref.Detections[i], cmp.DetectedAt[i], cmp.Detections[i])
		}
		// A lane retires once it reaches the n-detect target before the
		// sequence ends; crossing 63 of them guarantees retirements in
		// stripe words beyond the first.
		if ref.Detections[i] >= 2 && ref.DetectedAt[i] < int32(len(vecs))/2 {
			retired++
		}
	}
	if retired <= 63 {
		t.Fatalf("only %d early-retired lanes — fixture no longer exercises multi-word retirement", retired)
	}
}

// TestKernelDifferentialFuzz drives random netlists, fault lists and
// vector sequences through both kernels and requires bit-identical
// DetectedAt and Detections. Segment lengths are randomized so batches
// cross drop/repack boundaries mid-divergence, and NDetect > 1 runs
// exercise lane retirement.
func TestKernelDifferentialFuzz(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 12
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)*2654435761 + 1))
		n := randCircuit(t, rng, seed%2 == 1)
		faults, _ := Collapse(n, AllFaults(n))
		nCycles := 16 + rng.Intn(200)
		vecs := make(Vectors, nCycles)
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		opts := SimOptions{
			Faults:     faults,
			SegmentLen: 4 + rng.Intn(64),
			NDetect:    1 + rng.Intn(3),
			// Random stripe width, zero sometimes: the auto-tuned width
			// must be as bit-exact as every explicit one. Widths beyond
			// the fault count leave whole lane words empty, which is its
			// own edge case worth the fuzz coverage.
			LaneWords: rng.Intn(7),
		}
		if seed%5 == 0 {
			// Default segmentation: the compiled kernel's adaptive
			// schedule against the reference kernel's fixed frames.
			opts.SegmentLen = 0
		}
		refOpts, cmpOpts := opts, opts
		refOpts.Kernel = KernelReference
		cmpOpts.Kernel = KernelCompiled
		ref, err := Simulate(n, vecs, refOpts)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		cmp, err := Simulate(n, vecs, cmpOpts)
		if err != nil {
			t.Fatalf("seed %d: compiled: %v", seed, err)
		}
		for i := range faults {
			if ref.DetectedAt[i] != cmp.DetectedAt[i] {
				t.Fatalf("seed %d (nets=%d dffs=%d seg=%d ndet=%d lw=%d): fault %d site=%d sa1=%v: DetectedAt ref=%d compiled=%d",
					seed, n.NumNets(), len(n.DFFs()), opts.SegmentLen, opts.NDetect, opts.LaneWords,
					i, faults[i].Site, faults[i].SA1, ref.DetectedAt[i], cmp.DetectedAt[i])
			}
			if ref.Detections != nil && ref.Detections[i] != cmp.Detections[i] {
				t.Fatalf("seed %d (nets=%d dffs=%d seg=%d ndet=%d lw=%d): fault %d site=%d sa1=%v: Detections ref=%d compiled=%d",
					seed, n.NumNets(), len(n.DFFs()), opts.SegmentLen, opts.NDetect, opts.LaneWords,
					i, faults[i].Site, faults[i].SA1, ref.Detections[i], cmp.Detections[i])
			}
		}
	}
}
