package selftest

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestProgramSourceRoundTrip(t *testing.T) {
	p := &Program{
		Once: []isa.Instr{
			{Op: isa.OpLdi, Imm: 0x42, RD: 1, Comment: "atpg pattern"},
			{Op: isa.OpMpy, Acc: isa.AccA, RA: 1, RB: 1, RD: 2},
			{Op: isa.OpOut, Src: 2},
		},
		Loop: []isa.Instr{
			{Op: isa.OpLdRnd, RD: 0, RndImm: true, Comment: "operand"},
			{Op: isa.OpNop},
			{Op: isa.OpMacP, Acc: isa.AccB, RA: 0, RB: 1, RD: 3},
			{Op: isa.OpOut, Src: 3},
		},
	}
	src := p.Source()
	q, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram: %v\n%s", err, src)
	}
	if len(q.Once) != len(p.Once) || len(q.Loop) != len(p.Loop) {
		t.Fatalf("sections: once %d/%d loop %d/%d", len(q.Once), len(p.Once), len(q.Loop), len(p.Loop))
	}
	for i := range p.Once {
		if q.Once[i].Encode() != p.Once[i].Encode() {
			t.Fatalf("once[%d]: %s != %s", i, q.Once[i], p.Once[i])
		}
	}
	for i := range p.Loop {
		if q.Loop[i].Encode() != p.Loop[i].Encode() {
			t.Fatalf("loop[%d]: %s != %s", i, q.Loop[i], p.Loop[i])
		}
	}
	if q.Loop[0].Comment != "operand" {
		t.Fatalf("comment lost: %q", q.Loop[0].Comment)
	}
	// The RND template annotation must survive the round trip.
	if q.Loop[0].Op != isa.OpLdRnd {
		t.Fatalf("template load became %v", q.Loop[0].Op)
	}
}

func TestParseProgramPlainAsm(t *testing.T) {
	p, err := ParseProgram("LD RND,R1\nMPYA R1,R1,R2\nOUT R2\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Loop) != 3 || len(p.Once) != 0 {
		t.Fatalf("sections: %d/%d", len(p.Once), len(p.Loop))
	}
}

func TestParseProgramErrors(t *testing.T) {
	if _, err := ParseProgram(".bogus\nNOP\n"); err == nil || !strings.Contains(err.Error(), "directive") {
		t.Fatalf("err = %v", err)
	}
	if _, err := ParseProgram(".once\nNOP\n"); err == nil {
		t.Fatal("empty loop should error")
	}
	if _, err := ParseProgram("BOGUS\n"); err == nil {
		t.Fatal("bad mnemonic should error")
	}
}

func TestGeneratedProgramRoundTrips(t *testing.T) {
	g := sharedGenerator()
	prog, _ := g.Generate()
	q, err := ParseProgram(prog.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Loop) != len(prog.Loop) {
		t.Fatalf("loop %d != %d", len(q.Loop), len(prog.Loop))
	}
	for i := range prog.Loop {
		if q.Loop[i].Encode() != prog.Loop[i].Encode() ||
			q.Loop[i].RndImm != prog.Loop[i].RndImm {
			t.Fatalf("loop[%d] mismatch: %s vs %s", i, q.Loop[i], prog.Loop[i])
		}
	}
	// Expansion of the round-tripped program is identical.
	a := Expand(prog, ExpandOptions{Iterations: 5})
	b := Expand(q, ExpandOptions{Iterations: 5})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vector %d differs after round trip", i)
		}
	}
}

// Source renders the program in a round-trippable assembler format:
// optional ".once" and ".loop" section directives followed by one
// instruction per line (comments preserved). ParseProgram reads it back.
func (p *Program) Source() string {
	var sb strings.Builder
	write := func(ins []isa.Instr) {
		for _, in := range ins {
			sb.WriteString(in.String())
			if in.Comment != "" {
				sb.WriteString("  // ")
				sb.WriteString(in.Comment)
			}
			sb.WriteByte('\n')
		}
	}
	if len(p.Once) > 0 {
		sb.WriteString(".once\n")
		write(p.Once)
	}
	sb.WriteString(".loop\n")
	write(p.Loop)
	return sb.String()
}
