package fault

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// buildAdder returns a 4-bit combinational ripple adder netlist with
// fanout branches inserted (9 inputs: a[4], b[4], cin).
func buildAdder(t *testing.T) *logic.Netlist {
	t.Helper()
	b := logic.NewBuilder()
	a := b.InputBus("a", 4)
	x := b.InputBus("x", 4)
	cin := b.Input("cin")
	sum := make(logic.Bus, 4)
	carry := cin
	for i := 0; i < 4; i++ {
		axor := b.Xor(a[i], x[i])
		sum[i] = b.Xor(axor, carry)
		carry = b.Or(b.And(a[i], x[i]), b.And(axor, carry))
	}
	b.MarkOutputBus(sum, "sum")
	b.MarkOutput(carry, "cout")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// buildSeq returns a small sequential circuit: an accumulator register
// feeding back through an adder, with the register value as output.
func buildSeq(t *testing.T) *logic.Netlist {
	t.Helper()
	b := logic.NewBuilder()
	in := b.InputBus("in", 4)
	// acc <- acc + in
	feeds := make(logic.Bus, 4)
	for i := range feeds {
		feeds[i] = b.DeferredBuf()
	}
	acc := b.DFFBus(feeds, "acc")
	carry := b.Const(false)
	for i := 0; i < 4; i++ {
		axor := b.Xor(acc[i], in[i])
		s := b.Xor(axor, carry)
		carry = b.Or(b.And(acc[i], in[i]), b.And(axor, carry))
		b.ResolveBuf(feeds[i], s)
	}
	b.MarkOutputBus(acc, "out")
	n, err := b.Build(logic.BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// serialDetect fault-simulates one fault with the scalar reference
// simulator and returns the first cycle with an output difference, or -1.
func serialDetect(n *logic.Netlist, f Fault, vecs VectorSeq) int {
	first, _ := serialDetectN(n, f, vecs, 1)
	return first
}

// serialDetectN is serialDetect carried on until the fault has shown an
// output difference in ndet distinct cycles: it returns the first such
// cycle (or -1) and the count, saturated at ndet.
func serialDetectN(n *logic.Netlist, f Fault, vecs VectorSeq, ndet int) (first, count int) {
	good := logictest.NewSimulator(n)
	bad := logictest.NewSimulator(n)
	bad.InjectFault(f.Site, f.SA1)
	inputs := n.Inputs()
	first = -1
	for cycle := 0; cycle < vecs.Len() && count < ndet; cycle++ {
		vec := vecs.At(cycle)
		for bi, in := range inputs {
			good.SetInput(in, vec>>uint(bi)&1 == 1)
			bad.SetInput(in, vec>>uint(bi)&1 == 1)
		}
		good.Settle()
		bad.Settle()
		for _, out := range n.Outputs() {
			if good.Value(out) != bad.Value(out) {
				if first < 0 {
					first = cycle
				}
				count++
				break
			}
		}
		good.Step()
		bad.Step()
	}
	return first, count
}

func randomVectors(n int, bits int, seed int64) Vectors {
	rng := rand.New(rand.NewSource(seed))
	v := make(Vectors, n)
	mask := uint64(1)<<uint(bits) - 1
	for i := range v {
		v[i] = rng.Uint64() & mask
	}
	return v
}

func TestSimulateMatchesSerialCombinational(t *testing.T) {
	n := buildAdder(t)
	vecs := randomVectors(100, 9, 42)
	faults := AllFaults(n)
	res, err := Simulate(n, vecs, SimOptions{Faults: faults, SegmentLen: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		want := serialDetect(n, f, vecs)
		got := int(res.DetectedAt[i])
		if got != want {
			t.Errorf("fault %v (%s): parallel=%d serial=%d", f, n.NameOf(f.Site), got, want)
		}
	}
}

func TestSimulateMatchesSerialSequential(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(60, 4, 7)
	faults := AllFaults(n)
	res, err := Simulate(n, vecs, SimOptions{Faults: faults, SegmentLen: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range faults {
		want := serialDetect(n, f, vecs)
		got := int(res.DetectedAt[i])
		if got != want {
			t.Errorf("fault %v (%s): parallel=%d serial=%d", f, n.NameOf(f.Site), got, want)
		}
	}
}

// TestReferenceKernelMatchesSerial holds KernelReference to the scalar
// simulator on random netlists — variadic chains, MUXes, fault sites on
// flip-flop Q nets and primary inputs — for every collapsed fault, at
// NDetect 1 and 3 and segment lengths 1, 7 and the default.
func TestReferenceKernelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed*15485863 + 3))
		n := randCircuit(t, rng, seed%2 == 0)
		faults, _ := Collapse(n, AllFaults(n))
		vecs := make(Vectors, 30+rng.Intn(90))
		for i := range vecs {
			vecs[i] = rng.Uint64()
		}
		for _, ndet := range []int{1, 3} {
			firsts := make([]int, len(faults))
			counts := make([]int, len(faults))
			for i, f := range faults {
				firsts[i], counts[i] = serialDetectN(n, f, vecs, ndet)
			}
			for _, segLen := range []int{1, 7, 0} {
				res, err := Simulate(n, vecs, SimOptions{Faults: faults, NDetect: ndet, SegmentLen: segLen, Kernel: KernelReference})
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range faults {
					got, want := int(res.DetectedAt[i]), firsts[i]
					if got != want || (ndet > 1 && int(res.Detections[i]) != counts[i]) {
						t.Fatalf("seed %d ndet %d seg %d fault %v: reference at=%d, serial at=%d n=%d",
							seed, ndet, segLen, f, got, want, counts[i])
					}
				}
			}
		}
	}
}

// TestReferenceKernelIgnoresArtifacts: the reference kernel, the oracle
// the engine's quarantine re-run falls back to, fills its own trace with
// its own program. Handed a complete trace of other vectors and another
// netlist's program, it reads the result it reads without them, while
// the compiled kernel handed the same trace reads another.
func TestReferenceKernelIgnoresArtifacts(t *testing.T) {
	moved := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed*7907 + 11))
		n := randCircuit(t, rng, seed%2 == 0)
		other := randCircuit(t, rng, seed%2 == 1)
		vecs := make(Vectors, 60+rng.Intn(100))
		wrong := make(Vectors, len(vecs))
		for i := range vecs {
			vecs[i], wrong[i] = rng.Uint64(), rng.Uint64()
		}
		trace := logic.NewGoodTrace(n.NumNets(), len(wrong))
		FillGoodTrace(n, nil, wrong, trace, len(wrong))
		opts := SimOptions{Faults: AllFaults(n), NDetect: 2, Kernel: KernelReference}
		want, err := Simulate(n, vecs, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Trace, opts.Program = trace, logic.CompiledFor(other)
		got, err := Simulate(n, vecs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.DetectedAt, want.DetectedAt) || !slices.Equal(got.Detections, want.Detections) {
			t.Fatalf("seed %d: the reference kernel read the trace or program it was handed", seed)
		}
		compiled, err := Simulate(n, vecs, SimOptions{Faults: opts.Faults, NDetect: 2, Trace: trace, ShadowSample: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(compiled.DetectedAt, want.DetectedAt) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the corrupted traces move no compiled-kernel result: the fixture proves nothing")
	}
}

func TestSegmentLengthInvariance(t *testing.T) {
	n := buildSeq(t)
	vecs := randomVectors(80, 4, 99)
	faults := AllFaults(n)
	var ref *Result
	for _, segLen := range []int{1, 3, 16, 80, 1000} {
		res, err := Simulate(n, vecs, SimOptions{Faults: faults, SegmentLen: segLen})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range faults {
			if res.DetectedAt[i] != ref.DetectedAt[i] {
				t.Fatalf("segLen=%d fault %v: DetectedAt %d != ref %d",
					segLen, faults[i], res.DetectedAt[i], ref.DetectedAt[i])
			}
		}
	}
}

func TestCollapseEquivalences(t *testing.T) {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	a := b.And(x, y)
	o := b.Not(a)
	b.MarkOutput(o, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all := AllFaults(n)
	reps, classOf := Collapse(n, all)
	if len(reps) >= len(all) {
		t.Fatalf("collapse did not shrink: %d -> %d", len(all), len(reps))
	}
	// x/sa0 ≡ and/sa0 ≡ not-out/sa1 must share one representative.
	// (x feeds only the AND; the AND feeds only the NOT; the NOT feeds
	// only the output buffer.)
	andNet := a
	xSa0 := classOf[Fault{Site: x, SA1: false}]
	andSa0 := classOf[Fault{Site: andNet, SA1: false}]
	notSa1 := classOf[Fault{Site: o, SA1: true}]
	if xSa0 != andSa0 || andSa0 != notSa1 {
		t.Fatalf("expected x/sa0 ≡ and/sa0 ≡ not/sa1: %v %v %v", xSa0, andSa0, notSa1)
	}
	// Every fault must map to a representative that maps to itself.
	for f, rep := range classOf {
		if classOf[rep] != rep {
			t.Fatalf("rep of %v is %v which is not canonical", f, rep)
		}
	}
}

func TestCollapsedCoverageConsistent(t *testing.T) {
	// Detection status of a representative must equal the serial
	// detection status of every member of its class.
	n := buildAdder(t)
	vecs := randomVectors(200, 9, 5)
	all := AllFaults(n)
	reps, classOf := Collapse(n, all)
	res, err := Simulate(n, vecs, SimOptions{Faults: reps})
	if err != nil {
		t.Fatal(err)
	}
	detected := make(map[Fault]bool)
	for i, f := range res.Faults {
		detected[f] = res.DetectedAt[i] >= 0
	}
	for _, f := range all {
		want := serialDetect(n, f, vecs) >= 0
		if got := detected[classOf[f]]; got != want {
			t.Errorf("fault %v: class rep detection %v, serial %v", f, got, want)
		}
	}
}

func TestFullCoverageOnExhaustiveAdder(t *testing.T) {
	n := buildAdder(t)
	// All 512 input combinations.
	vecs := make(Vectors, 512)
	for i := range vecs {
		vecs[i] = uint64(i)
	}
	res, err := Simulate(n, vecs, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		undetected := []string{}
		for i, c := range res.DetectedAt {
			if c < 0 {
				undetected = append(undetected, res.Faults[i].String()+"="+n.NameOf(res.Faults[i].Site))
			}
		}
		t.Fatalf("exhaustive adder coverage %.4f, undetected: %v", res.Coverage(), undetected)
	}
}

func TestResultQueries(t *testing.T) {
	n := buildAdder(t)
	vecs := make(Vectors, 512)
	for i := range vecs {
		vecs[i] = uint64(i)
	}
	res, err := Simulate(n, vecs, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Detected()
	if got := res.DetectedBy(res.Cycles); got != total {
		t.Fatalf("DetectedBy(end)=%d != Detected()=%d", got, total)
	}
	if res.DetectedBy(0) > total {
		t.Fatal("DetectedBy(0) exceeds total")
	}
	if res.CoverageAt(res.Cycles) != res.Coverage() {
		t.Fatal("CoverageAt(end) != Coverage")
	}
	fc := res.FirstCycleReaching(total)
	if fc < 0 || res.DetectedBy(fc) < total {
		t.Fatalf("FirstCycleReaching(%d)=%d inconsistent", total, fc)
	}
	if fc > 0 && res.DetectedBy(fc-1) >= total {
		t.Fatalf("FirstCycleReaching not minimal: %d", fc)
	}
	if res.FirstCycleReaching(total+1) != -1 {
		t.Fatal("FirstCycleReaching beyond total should be -1")
	}
	if res.FirstCycleReaching(0) != 0 {
		t.Fatal("FirstCycleReaching(0) should be 0")
	}
}

func TestRegionCoverage(t *testing.T) {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	var inner logic.NetID
	b.Scoped("blockA", func() {
		inner = b.And(x, y)
	})
	b.MarkOutput(inner, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vecs := Vectors{0, 1, 2, 3}
	res, err := Simulate(n, vecs, SimOptions{Faults: AllFaults(n)})
	if err != nil {
		t.Fatal(err)
	}
	det, tot := res.RegionCoverage(n, "blockA")
	if tot != 2 {
		t.Fatalf("blockA total faults = %d, want 2", tot)
	}
	if det != 2 {
		t.Fatalf("blockA detected = %d, want 2 (exhaustive inputs)", det)
	}
}

func TestRegionFaults(t *testing.T) {
	b := logic.NewBuilder()
	x := b.Input("x")
	b.Scoped("blk", func() {
		b.MarkOutput(b.Not(x), "out")
	})
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fl := RegionFaults(n, "blk")
	// NOT gate + output buffer = 2 nets = 4 faults.
	if len(fl) != 4 {
		t.Fatalf("region faults = %d, want 4", len(fl))
	}
	if RegionFaults(n, "nope") != nil {
		t.Fatal("unknown region should yield nil")
	}
}

func TestTooManyInputsRejected(t *testing.T) {
	b := logic.NewBuilder()
	bus := b.InputBus("in", 65)
	b.MarkOutput(b.Xor(bus...), "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(n, Vectors{0}, SimOptions{}); err == nil {
		t.Fatal("expected error for >64 inputs")
	}
	if _, err := SimulateBridges(n, Vectors{0}, RandomBridges(n, 4, 1)); err == nil {
		t.Fatal("expected bridge error for >64 inputs")
	}
}

// FuncSeq adapts a generator function to a VectorSeq. The function must
// be deterministic in the cycle index because segments are replayed once
// per fault batch.
type FuncSeq struct {
	N  int
	Fn func(cycle int) uint64
}

// Len returns the number of cycles.
func (f FuncSeq) Len() int { return f.N }

// At returns the packed input assignment for a cycle.
func (f FuncSeq) At(i int) uint64 { return f.Fn(i) }

func TestFuncSeq(t *testing.T) {
	fs := FuncSeq{N: 10, Fn: func(c int) uint64 { return uint64(c * 3) }}
	if fs.Len() != 10 || fs.At(4) != 12 {
		t.Fatal("FuncSeq misbehaves")
	}
}

func TestDFFOutputFaultHoldsFromStart(t *testing.T) {
	// A sa1 fault on a DFF Q net must be visible at cycle 0 even though
	// the reset state is 0.
	b := logic.NewBuilder()
	din := b.Input("din")
	q := b.DFF(din, "q")
	b.MarkOutput(q, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := Fault{Site: q, SA1: true}
	res, err := Simulate(n, Vectors{0, 0, 0}, SimOptions{Faults: []Fault{f}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedAt[0] != 0 {
		t.Fatalf("DFF Q sa1 detected at %d, want 0", res.DetectedAt[0])
	}
}
