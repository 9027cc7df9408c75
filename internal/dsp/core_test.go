package dsp

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// progRun assembles and runs a program on a fresh core, padding each
// instruction with two NOPs so every result is architecturally visible
// to the next instruction (the test programs here are about semantics,
// not scheduling).
func progRun(t *testing.T, src string) *Core {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	for _, in := range prog {
		c.StepInstr(in)
		c.Step(0)
		c.Step(0)
	}
	c.Drain()
	return c
}

func TestLoadAndOut(t *testing.T) {
	c := progRun(t, `
		LD 0x5A,R3
		OUT R3
	`)
	if c.Reg(3) != 0x5A {
		t.Fatalf("R3 = %#x, want 0x5A", c.Reg(3))
	}
	if c.Output() != 0x5A {
		t.Fatalf("out = %#x, want 0x5A", c.Output())
	}
}

func TestMov(t *testing.T) {
	c := progRun(t, `
		LD 0x21,R1
		MOV R1,R9
	`)
	if c.Reg(9) != 0x21 {
		t.Fatalf("R9 = %#x", c.Reg(9))
	}
}

func TestMpyWritesAccAndDest(t *testing.T) {
	// 4.4 fixed point: 2.0 * 3.0 = 6.0 → acc 8.8 holds 6.0 = 0x600,
	// dest register 4.4 holds 0x60.
	c := progRun(t, `
		LD 0x20,R0
		LD 0x30,R1
		MPYA R0,R1,R2
	`)
	if got := c.AccValue(isa.AccA); got != 0x600 {
		t.Fatalf("AccA = %#x, want 0x600", got)
	}
	if c.Reg(2) != 0x60 {
		t.Fatalf("R2 = %#x, want 0x60 (limited 4.4 result)", c.Reg(2))
	}
	if c.AccValue(isa.AccB) != 0 {
		t.Fatal("AccB disturbed by MPYA")
	}
}

func TestMpyNegative(t *testing.T) {
	// -1.0 * 1.5 = -1.5 → acc = -384 (0x3FE80 in 18-bit two's complement).
	c := progRun(t, `
		LD 0xF0,R0
		LD 0x18,R1
		MPYB R0,R1,R2
	`)
	if got := SignExtend18(c.AccValue(isa.AccB)); got != -384 {
		t.Fatalf("AccB = %d, want -384", got)
	}
	if got := int8(c.Reg(2)); got != -24 {
		t.Fatalf("R2 = %d, want -24 (-1.5 in 4.4)", got)
	}
}

func TestMacAccumulates(t *testing.T) {
	c := progRun(t, `
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		MACA+ R0,R1,R3
		MACA+ R0,R1,R4
	`)
	// 1.0*1.0 = 1.0 accumulated three times = 3.0 = 0x300 in 8.8.
	if got := c.AccValue(isa.AccA); got != 0x300 {
		t.Fatalf("AccA = %#x, want 0x300", got)
	}
	if c.Reg(4) != 0x30 {
		t.Fatalf("R4 = %#x, want 0x30", c.Reg(4))
	}
}

func TestMacMinus(t *testing.T) {
	// acc = acc - prod: 0 - 1.0 = -1.0.
	c := progRun(t, `
		LD 0x10,R0
		LD 0x10,R1
		MACA- R0,R1,R2
	`)
	if got := SignExtend18(c.AccValue(isa.AccA)); got != -256 {
		t.Fatalf("AccA = %d, want -256", got)
	}
	if got := int8(c.Reg(2)); got != -16 {
		t.Fatalf("R2 = %d, want -16", got)
	}
}

func TestTruncate(t *testing.T) {
	// 0.5*0.5 = 0.25 → acc frac bits only; MACT truncates them to 0.
	c := progRun(t, `
		LD 0x08,R0
		LD 0x08,R1
		MPYTA R0,R1,R2
	`)
	if got := c.AccValue(isa.AccA); got != 0 {
		t.Fatalf("AccA = %#x, want 0 after truncate", got)
	}
	c2 := progRun(t, `
		LD 0x08,R0
		LD 0x08,R1
		MPYA R0,R1,R2
	`)
	if got := c2.AccValue(isa.AccA); got != 0x40 {
		t.Fatalf("untruncated AccA = %#x, want 0x40", got)
	}
}

func TestLimiterSaturates(t *testing.T) {
	// 7.9375 * 7.9375 ≈ 63 → way over the 4.4 max of 7.9375: saturate
	// to 0x7F.
	c := progRun(t, `
		LD 0x7F,R0
		LD 0x7F,R1
		MPYA R0,R1,R2
	`)
	if c.Reg(2) != 0x7F {
		t.Fatalf("R2 = %#x, want saturated 0x7F", c.Reg(2))
	}
	// -8.0 * 7.9375 saturates negative.
	c2 := progRun(t, `
		LD 0x80,R0
		LD 0x7F,R1
		MPYA R0,R1,R2
	`)
	if c2.Reg(2) != 0x80 {
		t.Fatalf("R2 = %#x, want saturated 0x80", c2.Reg(2))
	}
}

func TestShiftVariable(t *testing.T) {
	// Load acc with 1.0 via MPY, then shift left 2 → 4.0.
	c := progRun(t, `
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		LD 0x02,R5
		SHIFTA R5,R0,R3
	`)
	if got := c.AccValue(isa.AccA); got != 0x400 {
		t.Fatalf("AccA = %#x, want 0x400 after left-2", got)
	}
	if c.Reg(3) != 0x40 {
		t.Fatalf("R3 = %#x, want 0x40", c.Reg(3))
	}
	// Negative amount: right shift. 0xE = -2.
	c2 := progRun(t, `
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		LD 0x0E,R5
		SHIFTA R5,R0,R3
	`)
	if got := c2.AccValue(isa.AccA); got != 0x40 {
		t.Fatalf("AccA = %#x, want 0x40 after right-2", got)
	}
}

func TestMpyShift(t *testing.T) {
	// acc=1.0; MPYSHIFT: acc = (acc<<1) + prod = 2.0 + 1.0 = 3.0.
	c := progRun(t, `
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		MPYSHIFTA R0,R1,R3
	`)
	if got := c.AccValue(isa.AccA); got != 0x300 {
		t.Fatalf("AccA = %#x, want 0x300", got)
	}
}

func TestMpyShiftMac(t *testing.T) {
	// acc=1.0; amount nibble of RA=3 (opA=0x13: 1.1875 as value, low
	// nibble 3 as shift): acc = (acc<<3) + prod.
	// prod = 0x13 * 0x10 → (19*16)=304 = 0x130.
	c := progRun(t, `
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		LD 0x13,R6
		MPYSHIFTMACA R6,R1,R3
	`)
	want := uint32(0x100<<3 + 0x130)
	if got := c.AccValue(isa.AccA); got != want {
		t.Fatalf("AccA = %#x, want %#x", got, want)
	}
}

func TestAccumulatorIndependence(t *testing.T) {
	c := progRun(t, `
		LD 0x10,R0
		LD 0x20,R1
		MPYA R0,R1,R2
		LD 0x30,R1
		MPYB R0,R1,R3
	`)
	if got := c.AccValue(isa.AccA); got != 0x200 {
		t.Fatalf("AccA = %#x, want 0x200", got)
	}
	if got := c.AccValue(isa.AccB); got != 0x300 {
		t.Fatalf("AccB = %#x, want 0x300", got)
	}
}

func TestPipelineForwardingContract(t *testing.T) {
	// i+1 must read the OLD value (delay slot); i+2 reads the new value
	// through the forwarding register.
	prog, err := isa.Assemble(`
		LD 0x11,R1
		LD 0x22,R1
		MOV R1,R2
		MOV R1,R3
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	for _, in := range prog {
		c.StepInstr(in)
	}
	c.Drain()
	// MOV R1,R2 is i+1 of the second load: sees the first load's value.
	if c.Reg(2) != 0x11 {
		t.Fatalf("delay-slot read R2 = %#x, want 0x11 (old value)", c.Reg(2))
	}
	// MOV R1,R3 is i+2: sees the new value via forwarding.
	if c.Reg(3) != 0x22 {
		t.Fatalf("forwarded read R3 = %#x, want 0x22", c.Reg(3))
	}
	if c.Reg(1) != 0x22 {
		t.Fatalf("R1 = %#x, want 0x22", c.Reg(1))
	}
}

func TestBackToBackLoadsNoHazard(t *testing.T) {
	prog, err := isa.Assemble(`
		LD 0x01,R1
		LD 0x02,R2
		LD 0x03,R3
		LD 0x04,R4
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	for _, in := range prog {
		c.StepInstr(in)
	}
	c.Drain()
	for i := 1; i <= 4; i++ {
		if c.Reg(i) != uint8(i) {
			t.Fatalf("R%d = %#x", i, c.Reg(i))
		}
	}
}

func TestPipelineLatency(t *testing.T) {
	// A load's result must be committed exactly PipelineDepth cycles
	// after it is fed.
	c := New()
	c.StepInstr(isa.Instr{Op: isa.OpLdi, Imm: 0x77, RD: 5})
	for i := 1; i < PipelineDepth; i++ {
		if c.Reg(5) != 0 {
			t.Fatalf("R5 written early at cycle %d", i)
		}
		c.Step(0)
	}
	if c.Reg(5) != 0x77 {
		t.Fatalf("R5 = %#x after %d cycles", c.Reg(5), PipelineDepth)
	}
}

func TestUndecodableWordIsBubble(t *testing.T) {
	c := New()
	c.Step(0x1F << 12) // unassigned opcode
	c.Step(0)
	c.Step(0)
	c.Step(0)
	for i := 0; i < isa.NumRegs; i++ {
		if c.Reg(i) != 0 {
			t.Fatalf("R%d modified by trap word", i)
		}
	}
}

// recordingProbe captures every Observe call.
type recordingProbe struct {
	calls map[Component]int
	// override, when set, forces the component's value.
	overrideComp Component
	overrideVal  uint32
	overrideOn   bool
}

func (p *recordingProbe) Observe(comp Component, mode int, value uint32) uint32 {
	if p.calls == nil {
		p.calls = map[Component]int{}
	}
	p.calls[comp]++
	if p.overrideOn && comp == p.overrideComp {
		return p.overrideVal
	}
	return value
}

func TestProbeSeesAllMACComponents(t *testing.T) {
	c := New()
	p := &recordingProbe{}
	c.SetProbe(p)
	prog, _ := isa.Assemble(`
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		OUT R2
	`)
	for _, in := range prog {
		c.StepInstr(in)
		c.Step(0)
		c.Step(0)
	}
	c.Drain()
	for _, comp := range []Component{
		CompMultiplier, CompShifter, CompAddSub, CompMuxA, CompMuxB,
		CompTruncater, CompAccA, CompAccB, CompLimiter, CompBuffer,
		CompRegPortA, CompRegPortB, CompForward, CompOutPort,
	} {
		if p.calls[comp] == 0 {
			t.Errorf("component %s never observed", comp)
		}
	}
}

func TestProbeErrorInjectionPropagates(t *testing.T) {
	// Corrupt the multiplier output during MPYA's execute cycle; the
	// error must reach the destination register and then the output.
	prog, _ := isa.Assemble(`
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		OUT R2
	`)
	run := func(corrupt bool) uint8 {
		c := New()
		p := &recordingProbe{overrideComp: CompMultiplier, overrideVal: 0x5555, overrideOn: corrupt}
		c.SetProbe(p)
		for _, in := range prog {
			c.StepInstr(in)
			c.Step(0)
			c.Step(0)
		}
		c.Drain()
		return c.Output()
	}
	clean := run(false)
	bad := run(true)
	if clean == bad {
		t.Fatalf("multiplier corruption did not reach the output (both %#x)", clean)
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := progRun(t, `
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		OUT R2
	`)
	c.Reset()
	if c.Output() != 0 || c.Reg(0) != 0 || c.AccValue(isa.AccA) != 0 || c.cycle != 0 {
		t.Fatal("Reset left state behind")
	}
}

// TestRandomProgramsDontPanic fuzzes the core with random (decodable and
// undecodable) words.
func TestRandomProgramsDontPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New()
	for i := 0; i < 20000; i++ {
		c.Step(rng.Uint32() & (1<<isa.Width - 1))
	}
	// Accumulators must stay within 18 bits.
	if c.AccValue(isa.AccA) > Mask18 || c.AccValue(isa.AccB) > Mask18 {
		t.Fatal("accumulator escaped 18-bit range")
	}
}

func TestShiftAmountFromLowNibble(t *testing.T) {
	// The shift amount is RA's low nibble; the high nibble is ignored.
	c := progRun(t, `
		LD 0x10,R0
		LD 0x10,R1
		MPYA R0,R1,R2
		LD 0xF1,R5
		SHIFTA R5,R0,R3
	`)
	if got := c.AccValue(isa.AccA); got != 0x200 {
		t.Fatalf("AccA = %#x, want 0x200 (left-1)", got)
	}
}
