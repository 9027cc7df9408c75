package logic_test

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

func TestLiveNets(t *testing.T) {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	used := b.And(x, y)
	dangling := b.Or(x, y) // no consumer
	b.MarkOutput(used, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live := n.LiveNets()
	if !live[used] || !live[x] || !live[y] {
		t.Fatal("live cone mis-marked")
	}
	if live[dangling] {
		t.Fatal("dangling gate marked live")
	}
}

func TestLiveNetsCrossesDFFs(t *testing.T) {
	// in -> comb -> DFF -> out: the comb logic upstream of the DFF is
	// live because liveness crosses the D pin.
	b := logic.NewBuilder()
	in := b.Input("in")
	inv := b.Not(in)
	q := b.DFF(inv, "q")
	b.MarkOutput(q, "out")
	// A dead DFF: fed and never read.
	deadD := b.And(in, in)
	b.DFF(deadD, "deadq")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live := n.LiveNets()
	if !live[inv] || !live[q] {
		t.Fatal("upstream of live DFF must be live")
	}
	if live[deadD] {
		t.Fatal("cone of dead DFF marked live")
	}
	if live[n.Lookup("deadq")] {
		t.Fatal("dead DFF marked live")
	}
}

func TestExtendHelpers(t *testing.T) {
	b := logic.NewBuilder()
	bus := b.InputBus("v", 4)
	se := b.SignExtend(bus, 8)
	ze := b.ZeroExtend(bus, 8)
	b.MarkOutputBus(se, "se")
	b.MarkOutputBus(ze, "ze")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	for v := 0; v < 16; v++ {
		s.SetInputBus(bus, uint64(v))
		s.Settle()
		wantSE := uint64(v)
		if v >= 8 {
			wantSE |= 0xF0
		}
		if got := s.BusValue(se); got != wantSE {
			t.Fatalf("SignExtend(%d) = %x want %x", v, got, wantSE)
		}
		if got := s.BusValue(ze); got != uint64(v) {
			t.Fatalf("ZeroExtend(%d) = %x", v, got)
		}
	}
	if got := bus.Slice(1, 3).Width(); got != 2 {
		t.Fatalf("Slice width %d", got)
	}
	if bus.MSB() != bus[3] {
		t.Fatal("MSB wrong")
	}
}

func TestConstBus(t *testing.T) {
	b := logic.NewBuilder()
	cb := b.ConstBus(0b1010, 4)
	b.MarkOutputBus(cb, "c")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	s.Settle()
	if got := s.BusValue(cb); got != 0b1010 {
		t.Fatalf("ConstBus = %b", got)
	}
}

func TestDeferredBufUnresolvedFails(t *testing.T) {
	b := logic.NewBuilder()
	d := b.DeferredBuf()
	b.MarkOutput(d, "out")
	if _, err := b.Build(logic.BuildOptions{}); err == nil {
		t.Fatal("unresolved deferred buffer must fail Build")
	}

	b2 := logic.NewBuilder()
	x := b2.Input("x")
	b2.ResolveBuf(x, x) // not a deferred buffer
	if _, err := b2.Build(logic.BuildOptions{}); err == nil {
		t.Fatal("ResolveBuf on non-deferred net must fail")
	}
}

func TestNameCollisionAndAlias(t *testing.T) {
	b := logic.NewBuilder()
	x := b.Input("x")
	y := b.Not(x)
	b.Name(y, "inv")
	b.MarkOutput(y, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Lookup("inv") != y {
		t.Fatal("Name alias lost")
	}
	if n.NameOf(y) != "inv" {
		t.Fatalf("NameOf = %q", n.NameOf(y))
	}
}
