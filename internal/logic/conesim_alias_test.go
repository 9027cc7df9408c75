package logic_test

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/designs"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// checkAliasReplay replays the same fault batches against two traces of
// one run — the oracle's, a row per net in net order, and Extend's, in
// dense fill-slot order — and requires identical detection words every
// cycle and identical lane states at every batch end. The sweep reads
// the good machine only through row bits it resolved when it was built,
// so a read that skipped the trace's alias would diverge here. Each
// batch retires its detected lanes, so cone rebuilds resolve again, and
// the run is cut in two so the second half starts from a recorded row
// with the first half's lane states.
func checkAliasReplay(t *testing.T, what string, n *logic.Netlist, cycles int, seed int64) {
	t.Helper()
	c := logic.Compile(n)
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]uint64, cycles)
	for i := range vecs {
		vecs[i] = rng.Uint64()
	}
	at := func(cyc int) uint64 { return vecs[cyc] }
	netOrder := logic.NewGoodTrace(n.NumNets(), cycles)
	netOrder.OracleExtend(c, cycles, at)
	dense := logic.NewGoodTrace(c.TraceBits(), cycles)
	dense.Extend(c, cycles, at)

	lw := 1 + int(seed%4)
	var faults []logic.BatchFault
	for _, k := range rng.Perm(2 * n.NumNets())[:min(2*n.NumNets(), 63*lw)] {
		faults = append(faults, logic.BatchFault{Site: logic.NetID(k / 2), SA1: k%2 == 1})
	}
	stateWords := (len(n.DFFs()) + 63) / 64
	sims := [2]*logic.ConeSim{logic.NewConeSim(c, lw), logic.NewConeSim(c, lw)}
	traces := [2]*logic.GoodTrace{netOrder, dense}
	var states [2][][]uint64
	for _, seg := range [][2]int{{0, cycles / 2}, {cycles / 2, cycles}} {
		for k, e := range sims {
			e.BeginBatch(faults, traces[k], seg[0], states[k])
		}
		var det [2][]uint64
		det[0], det[1] = make([]uint64, lw), make([]uint64, lw)
		for cyc := seg[0]; cyc < seg[1]; cyc++ {
			for k, e := range sims {
				e.Cycle(cyc, det[k])
			}
			for w := range det[0] {
				if det[0][w] != det[1][w] {
					t.Fatalf("%s: cycle %d word %d detects %#x on the dense trace, %#x on the net-order one",
						what, cyc, w, det[1][w], det[0][w])
				}
				for x := det[0][w]; x != 0; x &= x - 1 {
					if rng.Intn(2) == 0 {
						for _, e := range sims {
							e.RetireLane(w, uint(bits.TrailingZeros64(x)))
						}
					}
				}
			}
			for _, e := range sims {
				e.Clock()
			}
		}
		for k, e := range sims {
			nextGood := make([]uint64, stateWords)
			traces[k].StateInto(seg[1], n.DFFs(), nextGood)
			states[k] = make([][]uint64, len(faults))
			for li := range faults {
				states[k][li] = make([]uint64, stateWords)
				e.LaneStateInto(li/63, uint(1+li%63), nextGood, states[k][li])
			}
			e.EndBatch()
		}
		for li := range faults {
			for j := range states[0][li] {
				if states[0][li][j] != states[1][li][j] {
					t.Fatalf("%s: fault %d's state word %d at cycle %d is %#x on the dense trace, %#x on the net-order one",
						what, li, j, seg[1], states[1][li][j], states[0][li][j])
				}
			}
		}
	}
}

// TestConeSimReadsGoodBitsThroughAlias pins that every good-machine bit
// the cone kernel reads — seeds, detection and clock operands, batch
// start state — goes through the trace's net → row-bit alias.
func TestConeSimReadsGoodBitsThroughAlias(t *testing.T) {
	for i, id := range []string{"dsp", "bench/c880"} {
		d, err := designs.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		checkAliasReplay(t, id, d.Netlist, 48, int64(3-i))
	}
	for seed := int64(0); seed < 40; seed++ {
		n, err := logictest.RandomNetlist(rand.New(rand.NewSource(seed)), seed%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		checkAliasReplay(t, "random", n, 40, seed)
	}
}
