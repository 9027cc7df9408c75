package logic

import (
	"math/rand"
	"testing"
)

// checkSweepShape holds the current batch's sweep program to what a
// dense cycle should cost: the cone's non-buffer instructions, the
// buffers an injection mask keeps alive, and one single-word op per
// (site, word) that carries a mask bit — with no instruction left that
// reads a mask slot across the whole stripe.
func checkSweepShape(t *testing.T, what string, e *EventSim) {
	t.Helper()
	c, lw := e.c, e.lw
	want, wantMask := 0, 0
	for _, id := range e.rWork {
		words := 0
		for w := 0; w < lw; w++ {
			if e.sa0[int(id)*lw+w]|e.sa1[int(id)*lw+w] != 0 {
				words++
			}
		}
		chain := int(c.pcEnd[id] - c.pcStart[id])
		if chain != 1 || c.code[c.pcStart[id]] != opBuf || words > 0 {
			want += chain
		}
		wantMask += words
	}
	gotMask := 0
	for pc, op := range e.swCode {
		if op == opMaskWord {
			gotMask++
			continue
		}
		for _, a := range []int32{e.swDst[pc], e.swA0[pc], e.swA1[pc], e.swA2[pc]} {
			if int(a) >= c.slots {
				t.Fatalf("%s: stripe instruction %d (opcode %d) touches mask slot %d", what, pc, op, a)
			}
		}
	}
	if len(e.swCode) != want+wantMask || gotMask != wantMask {
		t.Fatalf("%s: sweep program has %d instructions, %d of them mask ops; want %d + %d mask ops",
			what, len(e.swCode), gotMask, want, wantMask)
	}
	if wantMask == 0 || want == 0 {
		t.Fatalf("%s: fixture exercises nothing (%d instructions, %d mask ops)", what, want, wantMask)
	}
}

// TestSweepProgramShape pins the dense path's mechanism rather than its
// clock, on a fanout-branched netlist, right after BeginBatch and again
// after retirements have rebuilt the cone.
func TestSweepProgramShape(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := NewBuilder()
	var nets []NetID
	for i := 0; i < 6; i++ {
		nets = append(nets, b.Input(string(rune('a'+i))))
	}
	pick := func() NetID { return nets[rng.Intn(len(nets))] }
	for i := 0; i < 90; i++ {
		switch i % 5 {
		case 0:
			nets = append(nets, b.And(pick(), pick(), pick()))
		case 1:
			nets = append(nets, b.Nor(pick(), pick()))
		case 2:
			nets = append(nets, b.Mux2(pick(), pick(), pick()))
		case 3:
			nets = append(nets, b.Xor(pick(), pick()))
		default:
			nets = append(nets, b.DFF(pick(), ""))
		}
	}
	for i := 0; i < 3; i++ {
		b.MarkOutput(nets[len(nets)-1-2*i], string(rune('x'+i)))
	}
	n, err := b.Build(BuildOptions{InsertFanoutBranches: true})
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(n)
	trace := NewGoodTrace(n.NumNets(), 4)
	trace.Extend(c, 4, func(cyc int) uint64 { return uint64(cyc) * 0x9e3779b97f4a7c15 })

	// Both polarities of every net, branch buffers included: list
	// positions 62 and 63 are one site's sa0 and sa1, in different words.
	var faults []BatchFault
	for id := 0; id < n.NumNets() && len(faults) < 63*3+10; id++ {
		faults = append(faults, BatchFault{Site: NetID(id)}, BatchFault{Site: NetID(id), SA1: true})
	}
	if faults[62].Site != faults[63].Site {
		t.Fatal("fixture: positions 62/63 are different sites")
	}
	e := NewEventSim(c, 4)
	e.BeginBatch(faults, trace, 0, nil)
	checkSweepShape(t, "after BeginBatch", e)

	det := make([]uint64, 4)
	e.Cycle(0, det)
	e.Clock()
	for i := range faults {
		if i%3 != 0 {
			e.RetireLane(i/63, uint(1+i%63))
		}
	}
	e.Cycle(1, det) // rebuilds the cone around the survivors
	if e.pendingShrink || e.liveCount != (len(faults)+2)/3 {
		t.Fatalf("cone not rebuilt: pending=%v live=%d", e.pendingShrink, e.liveCount)
	}
	checkSweepShape(t, "after retirements", e)
	e.EndBatch()
}
