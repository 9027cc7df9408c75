package logic_test

import (
	"math/rand"
	"testing"

	"repro/internal/designs"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// sameTrace compares the recorded rows of [from, to) and the frontier.
func sameTrace(t *testing.T, what string, got, want *logic.GoodTrace, from, to int) {
	t.Helper()
	if got.ValidThrough() != to || want.ValidThrough() != to {
		t.Fatalf("%s: recorded through %d (oracle %d), want %d", what, got.ValidThrough(), want.ValidThrough(), to)
	}
	g, w := got.Rows(from, to), want.Rows(from, to)
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: row word %d (cycle %d) is %#x, oracle %#x", what, i, from+i/(len(w)/(to-from)), g[i], w[i])
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
// CompiledSim settling the full program, one Record per cycle) three
// ways: a whole-run trace filled in one call, the same trace filled in
// two calls (the second resumes from a mid-stream frontier), and a
// run-local trace re-Windowed segment by segment.
func checkFill(t *testing.T, what string, n *logic.Netlist, cycles int, seed int64) {
	t.Helper()
	c := logic.Compile(n)
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]uint64, cycles)
	for i := range vecs {
		vecs[i] = rng.Uint64()
	}
	at := func(cyc int) uint64 { return vecs[cyc] }

	want := logic.NewGoodTrace(n.NumNets(), cycles)
	want.OracleExtend(c, cycles, at)
	whole := logic.NewGoodTrace(n.NumNets(), cycles)
	if evals := whole.Extend(c, cycles, at); evals <= 0 || evals > int64(cycles)*int64(c.NumInstrs()) {
		t.Fatalf("%s: Extend reports %d instructions for %d cycles of a %d-instruction program", what, evals, cycles, c.NumInstrs())
	}
	sameTrace(t, what+" whole", whole, want, 0, cycles)

	resumed := logic.NewGoodTrace(n.NumNets(), cycles)
	resumed.Extend(c, cycles/3, at)
	resumed.Extend(c, cycles, at)
	sameTrace(t, what+" resumed", resumed, want, 0, cycles)

	seg := cycles/4 + 1
	got, ref := logic.NewGoodTrace(n.NumNets(), seg), logic.NewGoodTrace(n.NumNets(), seg)
	for start := 0; start < cycles; start += seg {
		end := min(start+seg, cycles)
		got.Window(start, end-start)
		ref.Window(start, end-start)
		got.Extend(c, end, at)
		ref.OracleExtend(c, end, at)
		sameTrace(t, what+" windowed", got, ref, start, end)
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
