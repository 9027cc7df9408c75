package logic

import (
	"math/rand"
	"testing"
)

// traceFixture builds a chain circuit whose net count crosses a
// 64-bit row-word boundary (IDs straddle words 0 and 1), so packed-row
// indexing is exercised at and past the seam — and the net count is
// deliberately not a multiple of 64.
func traceFixture(t *testing.T) (*Netlist, *CompiledSim) {
	t.Helper()
	b := NewBuilder()
	in := b.Input("a")
	cur := in
	for i := 0; i < 70; i++ {
		cur = b.Not(cur)
		if i == 20 || i == 40 {
			// Fold in flip-flop state so frontier round-trips are
			// non-trivial.
			cur = b.Xor(cur, b.DFF(cur, ""))
		}
	}
	b.MarkOutput(cur, "y")
	n, err := b.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNets()%64 == 0 || n.NumNets() < 65 {
		t.Fatalf("fixture wants an odd-sized multi-word circuit, got %d nets", n.NumNets())
	}
	return n, NewCompiledSim(CompiledFor(n))
}

// TestGoodTraceRecordBitWord: recorded rows agree with the simulator's
// lane 0 at every net — including IDs at the 63/64 word seam — and
// Word broadcasts each bit to all 64 lanes.
func TestGoodTraceRecordBitWord(t *testing.T) {
	n, sim := traceFixture(t)
	tr := NewGoodTrace(n.NumNets(), 4)
	rng := rand.New(rand.NewSource(7))
	for cyc := 0; cyc < 4; cyc++ {
		sim.SetInput(n.Inputs()[0], rng.Intn(2) == 1)
		sim.Settle()
		tr.Record(cyc, sim)
		for id := 0; id < n.NumNets(); id++ {
			want := sim.Word(NetID(id)) & 1
			if got := tr.Bit(cyc, NetID(id)); got != want {
				t.Fatalf("cycle %d net %d: Bit=%d sim=%d", cyc, id, got, want)
			}
			if got, want := tr.Word(cyc, NetID(id)), -want; got != uint64(want) {
				t.Fatalf("cycle %d net %d: Word=%#x want %#x", cyc, id, got, want)
			}
		}
		sim.ClockAfterSettle()
	}
}

// TestGoodTraceEnsureCyclesRegrow: growing the window preserves the
// recorded prefix and recording continues from the watermark.
func TestGoodTraceEnsureCyclesRegrow(t *testing.T) {
	n, sim := traceFixture(t)
	in := n.Inputs()[0]
	tr := NewGoodTrace(n.NumNets(), 2)

	var want [5][]uint64
	record := func(cyc int, v bool) {
		sim.SetInput(in, v)
		sim.Settle()
		tr.Record(cyc, sim)
		row := make([]uint64, 0, n.NumNets())
		for id := 0; id < n.NumNets(); id++ {
			row = append(row, sim.Word(NetID(id))&1)
		}
		want[cyc] = row
		sim.ClockAfterSettle()
	}
	record(0, true)
	record(1, false)

	tr.EnsureCycles(5)
	if tr.cap != 5 {
		t.Fatalf("Cycles()=%d after EnsureCycles(5)", tr.cap)
	}
	if tr.ValidThrough() != 2 {
		t.Fatalf("regrow moved the watermark: %d", tr.ValidThrough())
	}
	record(2, true)
	record(3, true)
	record(4, false)

	for cyc := 0; cyc < 5; cyc++ {
		for id, bit := range want[cyc] {
			if got := tr.Bit(cyc, NetID(id)); got != bit {
				t.Fatalf("cycle %d net %d lost across regrow: Bit=%d want %d", cyc, id, got, bit)
			}
		}
	}
	// A no-op Ensure (already big enough) must not reallocate rows away.
	tr.EnsureCycles(3)
	if tr.cap != 5 || tr.ValidThrough() != 5 {
		t.Fatalf("shrinking EnsureCycles changed the window: cap=%d valid=%d", tr.cap, tr.ValidThrough())
	}
}

// TestGoodTraceWindowAndFrontier: re-windowing discards rows but keeps
// the frontier, which is how per-segment run-local traces resume; the
// frontier state round-trips through StateInto.
func TestGoodTraceWindowAndFrontier(t *testing.T) {
	n, sim := traceFixture(t)
	in := n.Inputs()[0]
	tr := NewGoodTrace(n.NumNets(), 2)
	for cyc := 0; cyc < 2; cyc++ {
		sim.SetInput(in, true)
		sim.Settle()
		tr.Record(cyc, sim)
		sim.ClockAfterSettle()
	}
	state := make([]uint64, sim.StateWords())
	sim.LaneState(0, state)
	tr.SetFrontier(2, state)

	tr.Window(2, 2)
	if tr.ValidThrough() != 2 {
		t.Fatalf("ValidThrough=%d after Window(2,2)", tr.ValidThrough())
	}
	if fc, _ := tr.Frontier(); fc != 2 {
		t.Fatalf("frontier cycle %d lost by Window", fc)
	}
	got := make([]uint64, len(state))
	tr.StateInto(2, n.DFFs(), got)
	for i := range state {
		if got[i] != state[i] {
			t.Fatalf("frontier state word %d: %#x want %#x", i, got[i], state[i])
		}
	}
	// Recording resumes in the new window at the watermark.
	sim.SetInput(in, false)
	sim.Settle()
	tr.Record(2, sim)
	if tr.ValidThrough() != 3 {
		t.Fatalf("ValidThrough=%d after resumed Record", tr.ValidThrough())
	}
}
