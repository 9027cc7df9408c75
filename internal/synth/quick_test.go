package synth

import (
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// TestQuickMulSignedWidths property-tests the truncated signed
// multiplier across output widths against Go arithmetic.
func TestQuickMulSignedWidths(t *testing.T) {
	type circuit struct {
		n    *logic.Netlist
		a, x logic.Bus
		p    logic.Bus
	}
	build := func(w int) circuit {
		b := logic.NewBuilder()
		a := b.InputBus("a", 8)
		x := b.InputBus("x", 8)
		p := MulSigned(b, a, x, w)
		b.MarkOutputBus(p, "p")
		n, err := b.Build(logic.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return circuit{n, a, x, p}
	}
	for _, w := range []int{8, 12, 16, 18} {
		c := build(w)
		sim := logictest.NewSimulator(c.n)
		mask := int64(1)<<uint(w) - 1
		f := func(av, xv int8) bool {
			sim.SetInputBus(c.a, uint64(uint8(av)))
			sim.SetInputBus(c.x, uint64(uint8(xv)))
			sim.Settle()
			want := uint64(int64(av)*int64(xv)) & uint64(mask)
			return sim.BusValue(c.p) == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
	}
}

// TestQuickAddSubNegate: for all a, AddSub(0, a, sub=1) == Negate(a).
func TestQuickAddSubNegate(t *testing.T) {
	b := logic.NewBuilder()
	a := b.InputBus("a", 10)
	zero := b.ConstBus(0, 10)
	viaAddSub, _ := AddSub(b, zero, a, b.Const(true))
	viaNegate := Negate(b, a)
	b.MarkOutputBus(viaAddSub, "s")
	b.MarkOutputBus(viaNegate, "n")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim := logictest.NewSimulator(n)
	f := func(raw uint16) bool {
		v := uint64(raw) & 0x3FF
		sim.SetInputBus(a, v)
		sim.Settle()
		return sim.BusValue(viaAddSub) == sim.BusValue(viaNegate)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecoderOneHot: exactly one decoder line fires, at the
// selected index, for every width.
func TestQuickDecoderOneHot(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5} {
		b := logic.NewBuilder()
		sel := b.InputBus("s", w)
		outs := Decoder(b, sel)
		for i, o := range outs {
			b.Name(o, "")
			_ = i
		}
		bus := logic.Bus(outs)
		b.MarkOutputBus(bus, "y")
		n, err := b.Build(logic.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sim := logictest.NewSimulator(n)
		for v := 0; v < 1<<uint(w); v++ {
			sim.SetInputBus(sel, uint64(v))
			sim.Settle()
			if got := sim.BusValue(bus); got != 1<<uint(v) {
				t.Fatalf("w=%d sel=%d: one-hot %b", w, v, got)
			}
		}
	}
}

// TestQuickLimiterIdempotent: limiting an already-limited (sign-extended
// 8-bit) value is the identity.
func TestQuickLimiterIdempotent(t *testing.T) {
	b := logic.NewBuilder()
	in := b.InputBus("in", 8)
	wide := b.SignExtend(in, 18)
	// Shift into the window: value << 4 occupies bits [11:4].
	shifted := make(logic.Bus, 18)
	for i := range shifted {
		if i < 4 {
			shifted[i] = b.Const(false)
		} else if i-4 < 8 {
			shifted[i] = in[i-4]
		} else {
			shifted[i] = in[7] // sign fill
		}
	}
	_ = wide
	out := Limiter(b, shifted, 4, 8)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim := logictest.NewSimulator(n)
	f := func(v uint8) bool {
		sim.SetInputBus(in, uint64(v))
		sim.Settle()
		return sim.BusValue(out) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
