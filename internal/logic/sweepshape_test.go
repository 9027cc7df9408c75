package logic

import (
	"math/rand"
	"testing"
)

// checkSweepShape holds the current batch's sweep program to what a
// dense cycle should cost: the cone's non-buffer instructions, the
// buffers an injection mask keeps alive, and one single-word op per
// (site, word) that carries a mask bit; one seed per net the program
// reads and does not compute (masked word by word if it is an injected
// input), one scan instruction per cone output, and one clock
// instruction per cone flip-flop, an injected one staged through its
// masks — with no instruction left that reads a mask slot across the
// whole stripe, and the clock section the only writer of qDiff.
func checkSweepShape(t *testing.T, what string, e *ConeSim) {
	t.Helper()
	c, lw := e.c, e.lw
	maskWords := func(id NetID) (words int) {
		for w := 0; w < lw; w++ {
			if e.sa0[int(id)*lw+w]|e.sa1[int(id)*lw+w] != 0 {
				words++
			}
		}
		return words
	}
	// Every net something reads once buffers are copy-propagated away,
	// less what the cone computes, is seeded exactly once.
	seeded := map[int32]bool{}
	read := func(op int32) {
		if int(op) < c.numNets && e.aliasEpoch[op] == e.epoch {
			op = e.aliasTo[op]
		}
		if int(op) < c.numNets && e.combEpoch[op] != e.epoch {
			seeded[op] = true
		}
	}
	want, wantMask := 0, 0
	for _, id := range e.rWork {
		words := maskWords(id)
		ps, pe := c.pcStart[id], c.pcEnd[id]
		if pe-ps != 1 || c.code[ps] != opBuf || words > 0 {
			want += int(pe - ps)
		}
		wantMask += words
		for pc := ps; pc < pe; pc++ {
			read(c.a0[pc])
			if c.code[pc] >= opAnd2 {
				read(c.a1[pc])
			}
			if c.code[pc] == opMux {
				read(c.a2[pc])
			}
		}
	}
	wantClock := 0
	for _, di := range e.rDFF {
		read(int32(c.dNet[di]))
		wantClock++
		if words := maskWords(c.n.dffs[di]); words > 0 {
			wantClock += 1 + words // staged copy, its mask words
		}
	}
	for _, oi := range e.rOut {
		read(int32(c.n.outputs[oi]))
	}
	wantSeed, seededQ := len(seeded), 0
	for op := range seeded {
		if c.dffIndex[op] >= 0 && e.rEpoch[op] == e.epoch {
			seededQ++
		} else {
			wantSeed += maskWords(NetID(op))
		}
	}

	maskLo, det := int32(c.slots), e.qBase-1
	gotMask := 0
	for pc, op := range e.swCode {
		dst, ops := e.swDst[pc], []int32{e.swA0[pc], e.swA1[pc], e.swA2[pc]}
		switch op {
		case opMaskWord:
			if int32(pc) < e.swClock && e.combEpoch[dst] == e.epoch {
				gotMask++
			}
			continue
		case opBuf, opNot, opGood, opXorGood, opDetect:
			ops = ops[:1] // a1 and a2 name a trace-row bit or nothing
		case opMux:
		default:
			ops = ops[:2]
		}
		for _, a := range append(ops, dst) {
			if a >= maskLo && a < det {
				t.Fatalf("%s: stripe instruction %d (opcode %d) touches mask slot %d", what, pc, op, a)
			}
		}
		if (dst >= e.qBase) != (int32(pc) >= e.swClock) || (op == opDetect) != (dst == det) {
			t.Fatalf("%s: instruction %d (opcode %d) writes slot %d on the wrong side of the clock section at %d",
				what, pc, op, dst, e.swClock)
		}
	}
	if got := int(e.swClock); got != want+wantMask+wantSeed+len(e.rOut) || gotMask != wantMask {
		t.Fatalf("%s: sweep program has %d instructions ahead of the clock, %d of them cone mask ops; want %d + %d mask ops + %d seeds + %d outputs",
			what, got, gotMask, want, wantMask, wantSeed, len(e.rOut))
	}
	if got := len(e.swCode) - int(e.swClock); got != wantClock {
		t.Fatalf("%s: clock section has %d instructions, want %d for %d flip-flops", what, got, wantClock, len(e.rDFF))
	}
	if e.swEvals != int64(want*lw+wantMask) {
		t.Fatalf("%s: a sweep counts %d word-instructions, want the cone's %d", what, e.swEvals, want*lw+wantMask)
	}
	if wantMask == 0 || want == 0 || seededQ == 0 || wantSeed == len(seeded) || wantClock == len(e.rDFF) || len(e.rOut) == 0 {
		t.Fatalf("%s: fixture exercises nothing (%d instructions, %d mask ops, %d/%d seeds of flip-flops, %d with masked words, %d clock)",
			what, want, wantMask, seededQ, len(seeded), wantSeed, wantClock)
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
	e := NewConeSim(c, 4)
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
