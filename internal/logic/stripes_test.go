package logic

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomSweep returns a random sweep program over nSlots stripes of lw
// words followed by a few "trace row" words, and random values for all
// of it: every opcode, operands that alias their destination, mask
// stripes anywhere among the value stripes (next to their target
// included), opMaskWord on every word index in turn.
func randomSweep(rng *rand.Rand, lw, nSlots, n int) (e *ConeSim, vals []uint64) {
	e = &ConeSim{lw: lw, swVals: alignedWords(nSlots*lw + 3)}
	vals = make([]uint64, len(e.swVals))
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	slot := func(dst int32) int32 {
		switch rng.Intn(4) {
		case 0:
			return dst
		case 1:
			return (dst + 1) % int32(nSlots)
		}
		return int32(rng.Intn(nSlots))
	}
	for pc := 0; pc < n; pc++ {
		op := opcode(rng.Intn(int(opDetect) + 1))
		dst := int32(rng.Intn(nSlots))
		a0, a1, a2 := slot(dst), slot(dst), slot(dst)
		switch op {
		case opMaskWord:
			if a1 == int32(nSlots-1) {
				a1--
			}
			a2 = int32(pc % lw)
		case opGood, opXorGood, opDetect:
			a1, a2 = int32(rng.Intn(len(vals))), int32(rng.Intn(64))
		}
		e.swCode = append(e.swCode, op)
		e.swDst = append(e.swDst, dst)
		e.swA0 = append(e.swA0, a0)
		e.swA1 = append(e.swA1, a1)
		e.swA2 = append(e.swA2, a2)
	}
	e.checkSweep()
	return e, vals
}

// withAVX2 runs f with the kernel selector set to on.
func withAVX2(on bool, f func()) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = on
	f()
}

// TestStripeKernelsMatchGo runs random sweep programs on every runner
// of a width and requires byte-identical value stripes: the generic Go
// runner is the reference, the specialized Go runners (1, 4 and 8
// words) and the assembly kernels (2, 4 and 8) are held to it, the
// latter split into two tiles at every instruction boundary.
func TestStripeKernelsMatchGo(t *testing.T) {
	for _, lw := range []int{1, 2, 3, 4, 8} {
		for _, avx2 := range []bool{false, true} {
			t.Run(fmt.Sprintf("lw=%d/avx2=%v", lw, avx2), func(t *testing.T) {
				if avx2 && lw&1 == 1 {
					t.Skip("no assembly kernel for this width")
				}
				if avx2 && !useAVX2 {
					t.Skip("no AVX2 stripe kernels in this build or on this CPU: the Go runners are the only path")
				}
				rng := rand.New(rand.NewSource(int64(22 + lw)))
				for trial := 0; trial < 40; trial++ {
					const n = 96
					e, vals := randomSweep(rng, lw, 5+rng.Intn(20), n)
					want := append([]uint64(nil), vals...)
					runProgramStripes(e.swCode, e.swDst, e.swA0, e.swA1, e.swA2, want, lw, 0, n)
					for split := int32(0); split <= n; split++ {
						copy(e.swVals, vals)
						withAVX2(avx2, func() {
							e.runSweep(0, split)
							e.runSweep(split, n)
						})
						for i, v := range e.swVals {
							if v != want[i] {
								t.Fatalf("trial %d, tiles [0,%d) [%d,%d): word %d of slot %d is %#x, the generic runner has %#x",
									trial, split, split, n, i%lw, i/lw, v, want[i])
							}
						}
						if !avx2 && split > 0 {
							break // the Go runners gain nothing from more split points
						}
					}
				}
			})
		}
	}
}

// TestCheckSweepRejectsOutOfRange builds programs with one operand out
// of range each and expects checkSweep to name the instruction: the
// check the assembly needs is made whichever runner executes.
func TestCheckSweepRejectsOutOfRange(t *testing.T) {
	const lw, nSlots, bad = 4, 6, 2
	ops := []struct {
		op           opcode
		a0, a1, a2   int32
		field, value string
	}{
		{opAnd2, nSlots, 0, 0, "a0", "one past the last stripe"},
		{opAnd2, 0, -1, 0, "a1", "negative"},
		{opNot, 0, 99, 99, "", ""}, // unused operands are not checked
		{opMux, 0, 0, nSlots, "a2", "one past the last stripe"},
		{opMaskWord, 0, nSlots - 1, 0, "a1", "second mask stripe past the end"},
		{opMaskWord, 0, 0, lw, "a2", "word index at the width"},
		{opGood, 0, nSlots*lw + 3, 0, "a1", "row word past the end"},
		{opDetect, 0, 0, 64, "a2", "bit index 64"},
		{opDetect + 1, 0, 0, 0, "op", "unknown opcode"},
	}
	for _, avx2 := range []bool{false, useAVX2} {
		for _, c := range ops {
			e := &ConeSim{lw: lw, swVals: alignedWords(nSlots*lw + 3)}
			for pc := 0; pc < 4; pc++ {
				e.swCode = append(e.swCode, opXor2)
				e.swDst = append(e.swDst, 1)
				e.swA0 = append(e.swA0, 2)
				e.swA1 = append(e.swA1, 3)
				e.swA2 = append(e.swA2, 0)
			}
			e.swCode[bad], e.swA0[bad], e.swA1[bad], e.swA2[bad] = c.op, c.a0, c.a1, c.a2
			var got string
			withAVX2(avx2, func() {
				defer func() { got = fmt.Sprint(recover()) }()
				e.checkSweep()
			})
			if want := fmt.Sprintf("sweep instruction %d ", bad); (c.field != "") != strings.Contains(got, want) {
				t.Errorf("avx2=%v, opcode %d with %s %s: checkSweep said %q", avx2, c.op, c.field, c.value, got)
			}
		}
	}
}
