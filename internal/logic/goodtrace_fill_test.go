package logic_test

import (
	"math/rand"
	"testing"

	"repro/internal/designs"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// sameTrace compares every net's recorded bit over [from, to), buffers
// included, and the frontier. The oracle's rows are in net order and
// Extend's in dense fill-slot order, so the comparison goes through Bit.
func sameTrace(t *testing.T, what string, n *logic.Netlist, got, want *logic.GoodTrace, from, to int) {
	t.Helper()
	if got.ValidThrough() != to || want.ValidThrough() != to {
		t.Fatalf("%s: recorded through %d (oracle %d), want %d", what, got.ValidThrough(), want.ValidThrough(), to)
	}
	for cyc := from; cyc < to; cyc++ {
		for id := 0; id < n.NumNets(); id++ {
			if g, w := got.Bit(cyc, logic.NetID(id)), want.Bit(cyc, logic.NetID(id)); g != w {
				t.Fatalf("%s: net %d at cycle %d is %d, oracle %d", what, id, cyc, g, w)
			}
		}
	}
	gc, gs := got.Frontier()
	wc, ws := want.Frontier()
	if gc != wc || len(gs) != len(ws) {
		t.Fatalf("%s: frontier at cycle %d with %d words, oracle %d with %d", what, gc, len(gs), wc, len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("%s: frontier word %d is %#x, oracle %#x", what, i, gs[i], ws[i])
		}
	}
}

// checkFill holds GoodTrace.Extend to the fill it replaced (a
// CompiledSim settling the full program, one Record per cycle) four
// ways: a whole-run trace filled in one call, the same trace filled in
// two calls (the second resumes from a mid-stream frontier), a run-local
// trace re-Windowed segment by segment, and a whole-run trace a row per
// net wide. Rows narrower than TraceBits must be refused.
func checkFill(t *testing.T, what string, n *logic.Netlist, cycles int, seed int64) {
	t.Helper()
	c := logic.Compile(n)
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]uint64, cycles)
	for i := range vecs {
		vecs[i] = rng.Uint64()
	}
	at := func(cyc int) uint64 { return vecs[cyc] }
	bits := c.TraceBits()

	want := logic.NewGoodTrace(n.NumNets(), cycles)
	want.OracleExtend(c, cycles, at)
	whole := logic.NewGoodTrace(bits, cycles)
	if evals := whole.Extend(c, cycles, at); evals <= 0 || evals > int64(cycles)*int64(c.NumInstrs()) {
		t.Fatalf("%s: Extend reports %d instructions for %d cycles of a %d-instruction program", what, evals, cycles, c.NumInstrs())
	}
	sameTrace(t, what+" whole", n, whole, want, 0, cycles)

	resumed := logic.NewGoodTrace(bits, cycles)
	resumed.Extend(c, cycles/3, at)
	resumed.Extend(c, cycles, at)
	sameTrace(t, what+" resumed", n, resumed, want, 0, cycles)

	seg := cycles/4 + 1
	got, ref := logic.NewGoodTrace(bits, seg), logic.NewGoodTrace(n.NumNets(), seg)
	for start := 0; start < cycles; start += seg {
		end := min(start+seg, cycles)
		got.Window(start, end-start)
		ref.Window(start, end-start)
		got.Extend(c, end, at)
		ref.OracleExtend(c, end, at)
		sameTrace(t, what+" windowed", n, got, ref, start, end)
	}

	netWide := logic.NewGoodTrace(n.NumNets(), cycles)
	netWide.Extend(c, cycles, at)
	sameTrace(t, what+" net-wide", n, netWide, want, 0, cycles)

	if words := (bits + 63) / 64; words > 1 {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Extend filled %d-word rows of a %d-bit trace", what, words-1, bits)
				}
			}()
			logic.NewGoodTrace((words-1)*64, cycles).Extend(c, cycles, at)
		}()
	}
}

func TestExtendMatchesSettleAndRecord(t *testing.T) {
	for _, id := range []string{"dsp", "bench/c880", "fam/w16r8s1l1p2"} {
		d, err := designs.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		checkFill(t, id, d.Netlist, 96, 5)
	}
	for seed := int64(0); seed < 60; seed++ {
		n, err := logictest.RandomNetlist(rand.New(rand.NewSource(seed)), seed%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		checkFill(t, "random", n, 40, seed)
	}
}
