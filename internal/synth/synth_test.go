package synth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// signExt interprets the low w bits of v as a w-bit two's complement
// value and returns it as int64.
func signExt(v uint64, w int) int64 {
	v &= (1 << uint(w)) - 1
	if v>>(uint(w)-1)&1 == 1 {
		return int64(v) - (1 << uint(w))
	}
	return int64(v)
}

func TestAdderRandom(t *testing.T) {
	for _, width := range []int{1, 4, 8, 18} {
		b := logic.NewBuilder()
		a := b.InputBus("a", width)
		x := b.InputBus("x", width)
		cin := b.Input("cin")
		sum, cout := Adder(b, a, x, cin)
		b.MarkOutputBus(sum, "sum")
		b.MarkOutput(cout, "cout")
		n, err := b.Build(logic.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s := logictest.NewSimulator(n)
		rng := rand.New(rand.NewSource(int64(width)))
		mask := uint64(1)<<uint(width) - 1
		for i := 0; i < 500; i++ {
			av, xv := rng.Uint64()&mask, rng.Uint64()&mask
			c := uint64(rng.Intn(2))
			s.SetInputBus(a, av)
			s.SetInputBus(x, xv)
			s.SetInput(cin, c == 1)
			s.Settle()
			total := av + xv + c
			if got := s.BusValue(sum); got != total&mask {
				t.Fatalf("w=%d %d+%d+%d: sum %d want %d", width, av, xv, c, got, total&mask)
			}
			if got := s.Value(cout); got != (total>>uint(width)&1 == 1) {
				t.Fatalf("w=%d %d+%d+%d: cout %v", width, av, xv, c, got)
			}
		}
	}
}

func TestAddSub(t *testing.T) {
	const width = 18
	b := logic.NewBuilder()
	a := b.InputBus("a", width)
	x := b.InputBus("x", width)
	sub := b.Input("sub")
	sum, _ := AddSub(b, a, x, sub)
	b.MarkOutputBus(sum, "sum")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	mask := uint64(1)<<width - 1
	f := func(av, xv uint32, doSub bool) bool {
		aw, xw := uint64(av)&mask, uint64(xv)&mask
		s.SetInputBus(a, aw)
		s.SetInputBus(x, xw)
		s.SetInput(sub, doSub)
		s.Settle()
		var want uint64
		if doSub {
			want = (aw - xw) & mask
		} else {
			want = (aw + xw) & mask
		}
		return s.BusValue(sum) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNegate(t *testing.T) {
	const width = 8
	b := logic.NewBuilder()
	a := b.InputBus("a", width)
	out := Negate(b, a)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	for v := 0; v < 256; v++ {
		s.SetInputBus(a, uint64(v))
		s.Settle()
		want := uint64(-v) & 0xFF
		if got := s.BusValue(out); got != want {
			t.Fatalf("-%d: got %d want %d", v, got, want)
		}
	}
}

func TestMulSignedExhaustive8x8(t *testing.T) {
	b := logic.NewBuilder()
	a := b.InputBus("a", 8)
	x := b.InputBus("x", 8)
	p := MulSigned(b, a, x, 16)
	b.MarkOutputBus(p, "p")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	for av := 0; av < 256; av++ {
		for xv := 0; xv < 256; xv++ {
			s.SetInputBus(a, uint64(av))
			s.SetInputBus(x, uint64(xv))
			s.Settle()
			got := signExt(s.BusValue(p), 16)
			want := signExt(uint64(av), 8) * signExt(uint64(xv), 8)
			if got != want {
				t.Fatalf("%d*%d: got %d want %d", signExt(uint64(av), 8), signExt(uint64(xv), 8), got, want)
			}
		}
	}
}

// refShift mirrors BarrelShifter semantics in plain arithmetic.
func refShift(v int64, width int, mode ShifterMode, amount int64) int64 {
	mask := int64(1)<<uint(width) - 1
	trunc := func(x int64) int64 { return signExtI(x&mask, width) }
	switch mode {
	case ShifterPass:
		return trunc(v)
	case ShifterVariable:
		s := signExtI(amount, 4)
		if s >= 0 {
			return trunc(v << uint(s))
		}
		return trunc(v >> uint(-s))
	case ShifterLeft1:
		return trunc(v << 1)
	case ShifterRight1:
		return trunc(v >> 1)
	}
	panic("bad mode")
}

func signExtI(v int64, w int) int64 {
	v &= int64(1)<<uint(w) - 1
	if v>>(uint(w)-1)&1 == 1 {
		return v - int64(1)<<uint(w)
	}
	return v
}

func TestBarrelShifter(t *testing.T) {
	const width = 18
	b := logic.NewBuilder()
	data := b.InputBus("d", width)
	amount := b.InputBus("amt", 4)
	mode := b.InputBus("mode", 2)
	out := BarrelShifter(b, data, amount, mode)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	rng := rand.New(rand.NewSource(7))
	mask := uint64(1)<<width - 1
	for i := 0; i < 4000; i++ {
		dv := rng.Uint64() & mask
		amt := rng.Intn(16)
		md := ShifterMode(rng.Intn(4))
		s.SetInputBus(data, dv)
		s.SetInputBus(amount, uint64(amt))
		s.SetInputBus(mode, uint64(md))
		s.Settle()
		got := signExt(s.BusValue(out), width)
		want := refShift(signExt(dv, width), width, md, int64(amt))
		if got != want {
			t.Fatalf("shift d=%d amt=%d mode=%d: got %d want %d", signExt(dv, width), amt, md, got, want)
		}
	}
}

func TestBarrelShifterVariableSemantics(t *testing.T) {
	// Check the signed-amount contract directly: for amount in [-8,7],
	// positive shifts left, negative shifts arithmetically right.
	const width = 18
	b := logic.NewBuilder()
	data := b.InputBus("d", width)
	amount := b.InputBus("amt", 4)
	mode := b.InputBus("mode", 2)
	out := BarrelShifter(b, data, amount, mode)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	mask := uint64(1)<<width - 1
	for _, v := range []int64{0, 1, -1, 1000, -1000, 70000, -70000} {
		for amt := -8; amt <= 7; amt++ {
			s.SetInputBus(data, uint64(v)&mask)
			s.SetInputBus(amount, uint64(amt)&15)
			s.SetInputBus(mode, uint64(ShifterVariable))
			s.Settle()
			got := signExt(s.BusValue(out), width)
			var want int64
			if amt >= 0 {
				want = signExtI((v<<uint(amt))&int64(mask), width)
			} else {
				want = signExtI(v, width) >> uint(-amt)
			}
			if got != want {
				t.Fatalf("v=%d amt=%d: got %d want %d", v, amt, got, want)
			}
		}
	}
}

func TestTruncate(t *testing.T) {
	b := logic.NewBuilder()
	data := b.InputBus("d", 18)
	en := b.Input("en")
	out := Truncate(b, data, 8, en)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		dv := rng.Uint64() & (1<<18 - 1)
		for _, e := range []bool{false, true} {
			s.SetInputBus(data, dv)
			s.SetInput(en, e)
			s.Settle()
			want := dv
			if e {
				want &^= 0xFF
			}
			if got := s.BusValue(out); got != want {
				t.Fatalf("trunc d=%x en=%v: got %x want %x", dv, e, got, want)
			}
		}
	}
}

func TestLimiter(t *testing.T) {
	b := logic.NewBuilder()
	data := b.InputBus("d", 18)
	out := Limiter(b, data, 4, 8)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	check := func(v int64) {
		s.SetInputBus(data, uint64(v)&(1<<18-1))
		s.Settle()
		got := signExt(s.BusValue(out), 8)
		// Window is bits [11:4]: value/16 clamped to [-128, 127].
		want := v >> 4
		if want > 127 {
			want = 127
		}
		if want < -128 {
			want = -128
		}
		if got != want {
			t.Fatalf("limit %d: got %d want %d", v, got, want)
		}
	}
	for _, v := range []int64{0, 1, -1, 15, 16, -16, 2032, 2047, 2048, -2048, -2049, 100000, -100000, 131071, -131072} {
		check(v)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		check(signExt(rng.Uint64()&(1<<18-1), 18))
	}
}

func TestDecoder(t *testing.T) {
	b := logic.NewBuilder()
	sel := b.InputBus("sel", 4)
	outs := Decoder(b, sel)
	for i, o := range outs {
		b.MarkOutput(o, "y"+string(rune('A'+i)))
	}
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	for v := 0; v < 16; v++ {
		s.SetInputBus(sel, uint64(v))
		s.Settle()
		for i, o := range outs {
			if s.Value(o) != (i == v) {
				t.Fatalf("decoder sel=%d out%d=%v", v, i, s.Value(o))
			}
		}
	}
}

func TestMuxN(t *testing.T) {
	b := logic.NewBuilder()
	sel := b.InputBus("sel", 2)
	ins := make([]logic.Bus, 4)
	for i := range ins {
		ins[i] = b.InputBus("in"+string(rune('0'+i)), 4)
	}
	out := MuxN(b, sel, ins)
	b.MarkOutputBus(out, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	vals := []uint64{3, 9, 12, 6}
	for i, v := range vals {
		s.SetInputBus(ins[i], v)
	}
	for sv := 0; sv < 4; sv++ {
		s.SetInputBus(sel, uint64(sv))
		s.Settle()
		if got := s.BusValue(out); got != vals[sv] {
			t.Fatalf("mux sel=%d got %d want %d", sv, got, vals[sv])
		}
	}
}

func TestRegisterHoldAndLoad(t *testing.T) {
	b := logic.NewBuilder()
	d := b.InputBus("d", 8)
	en := b.Input("en")
	q := Register(b, d, en, "q")
	b.MarkOutputBus(q, "qo")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	// Load 0xA5.
	s.SetInputBus(d, 0xA5)
	s.SetInput(en, true)
	s.Step()
	if got := s.BusValue(q); got != 0xA5 {
		t.Fatalf("after load: %x", got)
	}
	// Hold while input changes.
	s.SetInputBus(d, 0x3C)
	s.SetInput(en, false)
	s.Step()
	if got := s.BusValue(q); got != 0xA5 {
		t.Fatalf("hold failed: %x", got)
	}
	// Load the new value.
	s.SetInput(en, true)
	s.Step()
	if got := s.BusValue(q); got != 0x3C {
		t.Fatalf("reload failed: %x", got)
	}
}

func TestRegisterLoopAccumulator(t *testing.T) {
	// acc <- acc + in each cycle: classic feedback structure.
	b := logic.NewBuilder()
	in := b.InputBus("in", 8)
	acc := RegisterLoop(b, func(q logic.Bus) logic.Bus {
		sum, _ := Adder(b, q, in, b.Const(false))
		return sum
	}, 8, "acc")
	b.MarkOutputBus(acc, "out")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	total := uint64(0)
	for _, v := range []uint64{1, 2, 3, 100, 255, 7} {
		s.SetInputBus(in, v)
		s.Step()
		total = (total + v) & 0xFF
		if got := s.BusValue(acc); got != total {
			t.Fatalf("acc after +%d: got %d want %d", v, got, total)
		}
	}
}

func TestRegisterFile(t *testing.T) {
	b := logic.NewBuilder()
	wa := b.InputBus("wa", 4)
	wd := b.InputBus("wd", 8)
	we := b.Input("we")
	ra := b.InputBus("ra", 4)
	rb := b.InputBus("rb", 4)
	rf := RegisterFile(b, RegisterFileConfig{NumRegs: 16, Width: 8}, wa, wd, we)
	pa := rf.ReadPort(b, ra)
	pb := rf.ReadPort(b, rb)
	b.MarkOutputBus(pa, "pa")
	b.MarkOutputBus(pb, "pb")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	ref := make([]uint64, 16)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		addr := rng.Intn(16)
		val := rng.Uint64() & 0xFF
		doWrite := rng.Intn(4) != 0
		s.SetInputBus(wa, uint64(addr))
		s.SetInputBus(wd, val)
		s.SetInput(we, doWrite)
		s.Step()
		if doWrite {
			ref[addr] = val
		}
		r1, r2 := rng.Intn(16), rng.Intn(16)
		s.SetInputBus(ra, uint64(r1))
		s.SetInputBus(rb, uint64(r2))
		s.SetInput(we, false)
		s.Settle()
		if got := s.BusValue(pa); got != ref[r1] {
			t.Fatalf("read port A r%d: got %x want %x", r1, got, ref[r1])
		}
		if got := s.BusValue(pb); got != ref[r2] {
			t.Fatalf("read port B r%d: got %x want %x", r2, got, ref[r2])
		}
	}
}

func TestEqualIsZero(t *testing.T) {
	b := logic.NewBuilder()
	a := b.InputBus("a", 5)
	x := b.InputBus("x", 5)
	eq := b.MarkOutput(Equal(b, a, x), "eq")
	z := b.MarkOutput(IsZero(b, a), "z")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := logictest.NewSimulator(n)
	for av := 0; av < 32; av++ {
		for xv := 0; xv < 32; xv++ {
			s.SetInputBus(a, uint64(av))
			s.SetInputBus(x, uint64(xv))
			s.Settle()
			if s.Value(eq) != (av == xv) {
				t.Fatalf("eq %d %d", av, xv)
			}
			if s.Value(z) != (av == 0) {
				t.Fatalf("zero %d", av)
			}
		}
	}
}
