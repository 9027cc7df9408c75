package dsp

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestTracer(t *testing.T) {
	var sb strings.Builder
	tr := &Tracer{W: &sb, Regs: []int{3}}
	c := New()
	prog, err := isa.Assemble(`
		LD 0x5A,R3
		NOP
		NOP
		OUT R3
	`)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(c, prog)
	out := sb.String()
	if !strings.Contains(out, "LD 0x5a,R3") {
		t.Errorf("trace missing disassembly:\n%s", out)
	}
	if !strings.Contains(out, "R3=5a") {
		t.Errorf("trace missing register value:\n%s", out)
	}
	if !strings.Contains(out, "out=5a") {
		t.Errorf("trace missing output value:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != len(prog)+3 {
		t.Errorf("trace has %d lines, want %d", lines, len(prog)+3)
	}
	// Undecodable word renders as "-".
	var sb2 strings.Builder
	tr2 := &Tracer{W: &sb2}
	tr2.Step(New(), 0x1F<<12)
	if !strings.Contains(sb2.String(), "-") {
		t.Error("trap word not rendered as '-'")
	}
}

// Tracer logs one line per retiring cycle of a behavioral Core run —
// the disassembled instruction entering the pipeline plus the
// architectural state after the clock edge.
type Tracer struct {
	W io.Writer
	// Regs selects which registers to show (nil = R0..R3).
	Regs []int
}

// Step advances the core one cycle and logs it.
func (t *Tracer) Step(c *Core, word uint32) {
	c.Step(word)
	regs := t.Regs
	if regs == nil {
		regs = []int{0, 1, 2, 3}
	}
	dis := "-"
	if in, err := isa.Decode(word); err == nil {
		dis = in.String()
	}
	fmt.Fprintf(t.W, "%5d  %-22s out=%02x accA=%05x accB=%05x", c.cycle, dis,
		c.Output(), c.AccValue(isa.AccA), c.AccValue(isa.AccB))
	for _, r := range regs {
		fmt.Fprintf(t.W, " R%d=%02x", r, c.Reg(r))
	}
	fmt.Fprintln(t.W)
}

// Run traces a whole program (with pipeline drain).
func (t *Tracer) Run(c *Core, prog []isa.Instr) {
	for _, in := range prog {
		t.Step(c, in.Encode())
	}
	for i := 0; i < 3; i++ {
		t.Step(c, 0)
	}
}
