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
			// Default segmentation: both kernels on the adaptive
			// schedule, which a fixed SegmentLen pins everywhere else.
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

// diffKernels runs both kernels on the same options and requires
// bit-identical DetectedAt and Detections.
func diffKernels(t *testing.T, what string, n *logic.Netlist, vecs Vectors, opts SimOptions) *Result {
	t.Helper()
	refOpts, cmpOpts := opts, opts
	refOpts.Kernel = KernelReference
	cmpOpts.Kernel = KernelCompiled
	ref, err := Simulate(n, vecs, refOpts)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	cmp, err := Simulate(n, vecs, cmpOpts)
	if err != nil {
		t.Fatalf("%s: compiled: %v", what, err)
	}
	for i, f := range opts.Faults {
		if ref.DetectedAt[i] != cmp.DetectedAt[i] || (ref.Detections != nil && ref.Detections[i] != cmp.Detections[i]) {
			t.Fatalf("%s (lw=%d seg=%d ndet=%d): fault %d site=%d sa1=%v: reference at=%d, compiled at=%d",
				what, opts.LaneWords, opts.SegmentLen, opts.NDetect, i, f.Site, f.SA1, ref.DetectedAt[i], cmp.DetectedAt[i])
		}
	}
	return cmp
}

// denseCircuit is a machine whose faults diverge for good and show only
// when asked: a 12-bit state register mixed through a cloud of gates
// (every flip-flop's next value XORs its neighbour with a cloud net, so
// a fault effect that reaches the state stays there), observed through
// outputs that input 0 gates. With input 0 low the batch is dense and
// nothing retires; raising it detects nearly everything at once. One
// redundant gate keeps a fault alive, and quiet, to the end of any run
// (the cloud's seed is one that leaves no other survivor).
func denseCircuit(t *testing.T, fanoutBranches bool) *logic.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	b := logic.NewBuilder()
	en := b.Input("en")
	var nets []logic.NetID
	for i := 0; i < 4; i++ {
		nets = append(nets, b.Input(string(rune('a'+i))))
	}
	var ds, qs []logic.NetID
	for i := 0; i < 12; i++ {
		ds = append(ds, b.DeferredBuf())
		qs = append(qs, b.DFF(ds[i], ""))
	}
	nets = append(nets, qs...)
	pick := func() logic.NetID { return nets[rng.Intn(len(nets))] }
	for i := 0; i < 70; i++ {
		switch i % 4 {
		case 0:
			nets = append(nets, b.Xor(pick(), pick()))
		case 1:
			nets = append(nets, b.Mux2(pick(), pick(), pick()))
		case 2:
			nets = append(nets, b.Xnor(pick(), pick(), pick()))
		default:
			nets = append(nets, b.Or(b.And(pick(), pick()), pick()))
		}
	}
	for i, d := range ds {
		b.ResolveBuf(d, b.Xor(qs[(i+11)%12], nets[len(nets)-1-i]))
	}
	for i := 0; i < 4; i++ {
		b.MarkOutput(b.And(en, qs[3*i]), string(rune('w'+i)))
	}
	b.MarkOutput(b.Or(b.And(nets[0], b.Not(nets[0])), b.And(en, qs[1])), "r")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: fanoutBranches})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// gatedVectors holds input 0 low for the first quiet cycles and high
// after them; the other inputs are random throughout.
func gatedVectors(cycles, quiet int) Vectors {
	rng := rand.New(rand.NewSource(8))
	vecs := make(Vectors, cycles)
	for i := range vecs {
		vecs[i] = rng.Uint64() &^ 1
		if i >= quiet {
			vecs[i] |= 1
		}
	}
	return vecs
}

// TestKernelPartFilledWideBatches: a batch that fills a fraction of an
// explicitly wide stripe replays on narrower stripes (70 faults under
// LaneWords 4 on two words, 130 and 64 under 8 on four and two, and
// whatever survives a segment on fewer still), and a site whose sa0 and
// sa1 faults sit at list positions 62 and 63 has its masks in different
// stripe words.
func TestKernelPartFilledWideBatches(t *testing.T) {
	n := denseCircuit(t, true)
	all := AllFaults(n)
	vecs := gatedVectors(160, 100)
	for _, c := range []struct{ faults, lw int }{{70, 4}, {130, 8}, {64, 8}, {70, 1}, {130, 2}} {
		for _, ndet := range []int{1, 3} {
			faults := all[:c.faults]
			if faults[62].Site != faults[63].Site || faults[62].SA1 == faults[63].SA1 {
				t.Fatalf("fixture: list positions 62/63 are %+v and %+v, want one site's two faults", faults[62], faults[63])
			}
			res := diffKernels(t, "part-filled", n, vecs, SimOptions{Faults: faults, LaneWords: c.lw, NDetect: ndet, SegmentLen: 50})
			late := 0
			for _, at := range res.DetectedAt {
				if at >= 100 {
					late++
				}
			}
			if late < c.faults/2 {
				t.Fatalf("%d faults at width %d: %d detected after two segment boundaries — fixture carries no lane state", c.faults, c.lw, late)
			}
		}
	}
}

// TestKernelInjectedInputThroughBuffersOnly: a primary input whose only
// readers are buffers that end on a primary output and on a flip-flop D
// pin. With those buffers copy-propagated out of the sweep program the
// output scan and the clock read the input's own slot, which no sweep
// instruction reads — it has to reach the read frontier by that route.
// The rest of the circuit keeps the batch dense, so the sweep runs.
func TestKernelInjectedInputThroughBuffersOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := logic.NewBuilder()
	p := b.Input("p")
	var nets []logic.NetID
	for i := 0; i < 3; i++ {
		nets = append(nets, b.Input(string(rune('a'+i))))
	}
	b.MarkOutput(b.Buf(b.Buf(p, ""), ""), "direct")
	held := b.DFF(b.Buf(p, ""), "")
	nets = append(nets, held, b.DFF(held, ""))
	pick := func() logic.NetID { return nets[rng.Intn(len(nets))] }
	for i := 0; i < 60; i++ {
		nets = append(nets, b.Xor(pick(), pick()))
	}
	b.MarkOutput(b.Xor(nets[len(nets)-1], nets[len(nets)-2], nets[len(nets)-3]), "mixed")
	for _, fb := range []bool{false, true} {
		n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: fb})
		if err != nil {
			t.Fatal(err)
		}
		// No fault on a buffer, or its mask would keep it in the program.
		var faults []Fault
		for _, f := range AllFaults(n) {
			if n.Gate(f.Site).Kind != logic.GateBuf {
				faults = append(faults, f)
			}
		}
		vecs := make(Vectors, 120)
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		swept := ctrCyclesSweep.Load()
		for _, lw := range []int{0, 1, 4} {
			// A quota the input's faults do not reach within a segment keeps
			// them live while the batch is dense.
			diffKernels(t, "input through buffers", n, vecs, SimOptions{Faults: faults, LaneWords: lw, NDetect: 30, SegmentLen: 40})
		}
		if ctrCyclesSweep.Load() == swept {
			t.Fatalf("fb=%v: no dense cycle ran — the fixture never reaches the sweep program", fb)
		}
	}
}

// TestKernelDenseThenRetiring: one 8-word batch stays dense for 400
// cycles with nothing retiring, then a detection wave retires nearly
// every fault and the survivors run on to the end in a rebuilt cone.
func TestKernelDenseThenRetiring(t *testing.T) {
	n := denseCircuit(t, false)
	faults, _ := Collapse(n, AllFaults(n))
	const lw = 8
	if len(faults) > 63*lw {
		t.Fatalf("fixture: %d faults do not fit one batch", len(faults))
	}
	vecs := gatedVectors(700, 400)
	res := diffKernels(t, "dense then retiring", n, vecs, SimOptions{Faults: faults, LaneWords: lw, SegmentLen: 1024})
	wave, survivors := 0, 0
	for _, at := range res.DetectedAt {
		switch {
		case at < 0:
			survivors++
		case at >= 400:
			wave++
		}
	}
	if wave < len(faults)*3/4 || survivors == 0 {
		t.Fatalf("fixture: %d of %d faults detected in the wave and %d never — want most in the wave and a survivor", wave, len(faults), survivors)
	}
}
