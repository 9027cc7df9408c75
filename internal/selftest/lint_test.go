package selftest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
)

func lintMsgs(t *testing.T, p *Program) string {
	t.Helper()
	var sb strings.Builder
	for _, w := range Lint(p) {
		sb.WriteString(w.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestLintCleanProgram(t *testing.T) {
	p := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 0, RndImm: true},
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpNop},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 1, RD: 2},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 2},
	}}
	if msgs := lintMsgs(t, p); msgs != "" {
		t.Fatalf("clean program flagged:\n%s", msgs)
	}
}

func TestLintDelaySlot(t *testing.T) {
	p := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpMov, Src: 1, RD: 2}, // one cycle after the write
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 2},
	}}
	if msgs := lintMsgs(t, p); !strings.Contains(msgs, "delay slot") {
		t.Fatalf("delay slot not flagged:\n%s", msgs)
	}
}

func TestLintUnobservedResult(t *testing.T) {
	p := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 0, RndImm: true},
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpLdRnd, RD: 2, RndImm: true}, // dead: overwritten below, never read
		{Op: isa.OpNop},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 1, RD: 2},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 2},
	}}
	msgs := lintMsgs(t, p)
	if !strings.Contains(msgs, "overwritten before any OUT") {
		t.Fatalf("dead result not flagged:\n%s", msgs)
	}
	if strings.Count(msgs, "overwritten before any OUT") != 1 {
		t.Fatalf("expected exactly one dead-result warning:\n%s", msgs)
	}
}

func TestLintDeadMacWithUnusedAcc(t *testing.T) {
	// A MAC whose destination dies AND whose accumulator is never read
	// again is genuinely wasted — must be flagged.
	p := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 0, RndImm: true},
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpNop},
		{Op: isa.OpMpy, Acc: isa.AccB, RA: 0, RB: 1, RD: 2}, // AccB never reused
		{Op: isa.OpMov, Src: 0, RD: 2},                      // overwrites R2 unseen
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 2},
	}}
	msgs := lintMsgs(t, p)
	if !strings.Contains(msgs, "overwritten before any OUT") {
		t.Fatalf("dead MAC not flagged:\n%s", msgs)
	}
}

func TestLintNoRandomData(t *testing.T) {
	p := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdi, Imm: 3, RD: 0},
		{Op: isa.OpLdi, Imm: 5, RD: 1},
		{Op: isa.OpNop},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 1, RD: 2},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 2},
	}}
	if msgs := lintMsgs(t, p); !strings.Contains(msgs, "no pseudorandom loads") {
		t.Fatalf("constant-only loop not flagged:\n%s", msgs)
	}
}

func TestLintUndefinedRead(t *testing.T) {
	p := &Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 0, RndImm: true},
		{Op: isa.OpNop},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 9, RD: 2}, // R9 never written
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 2},
	}}
	if msgs := lintMsgs(t, p); !strings.Contains(msgs, "reads R9") {
		t.Fatalf("undefined read not flagged:\n%s", msgs)
	}
}

func TestLintEmptyLoop(t *testing.T) {
	if msgs := lintMsgs(t, &Program{}); !strings.Contains(msgs, "empty loop") {
		t.Fatalf("empty loop not flagged: %q", msgs)
	}
}

func TestGeneratedProgramLintsClean(t *testing.T) {
	g := sharedGenerator()
	prog, _ := g.Generate()
	var real []LintWarning
	for _, w := range Lint(prog) {
		real = append(real, w)
	}
	if len(real) != 0 {
		t.Fatalf("generator output flagged:\n%v\n%s", real, prog)
	}
}

// LintWarning flags a suspicious construct in a self-test program.
type LintWarning struct {
	// Pos is the loop index (or −1 for program-level findings).
	Pos int
	Msg string
}

// String renders the warning.
func (w LintWarning) String() string {
	if w.Pos < 0 {
		return w.Msg
	}
	return fmt.Sprintf("loop[%d]: %s", w.Pos, w.Msg)
}

// Lint checks a self-test program for the mistakes that silently gut
// coverage in hand-written programs:
//
//   - delay-slot hazards (a read one cycle after the write returns the
//     old value — almost never what the author meant);
//   - MAC results that are never observed (no OUT of the destination
//     before it is overwritten, considering the loop's wrap-around);
//   - no pseudorandom data at all (a loop without LD RND re-applies the
//     same constants every iteration, so extra iterations add nothing
//     beyond register rotation);
//   - reads of registers that are never written inside the loop (their
//     value depends on what previous code left behind).
//
// Programs emitted by the Generator lint clean
// (TestGeneratedProgramLintsClean).
func Lint(p *Program) []LintWarning {
	var warns []LintWarning
	loop := p.Loop
	n := len(loop)
	if n == 0 {
		return []LintWarning{{Pos: -1, Msg: "empty loop body"}}
	}

	for _, pos := range HazardViolations(loop) {
		warns = append(warns, LintWarning{Pos: pos,
			Msg: fmt.Sprintf("%s reads a register written one cycle earlier (delay slot returns the old value)", loop[pos])})
	}

	hasRnd := false
	written := map[uint8]bool{}
	for _, in := range loop {
		if in.RndImm || in.Op == isa.OpLdRnd {
			hasRnd = true
		}
		if in.Op.WritesDest() {
			written[in.RD] = true
		}
	}
	if !hasRnd {
		warns = append(warns, LintWarning{Pos: -1,
			Msg: "no pseudorandom loads (LD RND): iterations repeat the same data"})
	}

	// Unobserved results: walk each write forward (wrapping once) until
	// an OUT of that register, a read, or an overwrite. A MAC-family
	// instruction also deposits its full result in the accumulator, so a
	// later MAC-family instruction on the same accumulator counts as
	// consumption even when the destination register is scratch (the
	// generator's accumulator-zeroing preambles are the legitimate case).
	for i, in := range loop {
		if !in.Op.WritesDest() {
			continue
		}
		observed := false
		for k := 1; k <= n; k++ {
			next := loop[(i+k)%n]
			if next.Op == isa.OpOut && next.Src == in.RD {
				observed = true
				break
			}
			if reads(next, in.RD) {
				observed = true // consumed: flows onward
				break
			}
			if next.Op.WritesDest() && next.RD == in.RD {
				break // overwritten unseen
			}
		}
		if !observed && in.Op.MacFamily() {
			for k := 1; k < n; k++ { // excludes the instruction itself
				next := loop[(i+k)%n]
				if next.Op.MacFamily() && next.Acc == in.Acc {
					observed = true // result lives on in the accumulator
					break
				}
			}
		}
		if !observed {
			warns = append(warns, LintWarning{Pos: i,
				Msg: fmt.Sprintf("%s: result in R%d is overwritten before any OUT or use", in, in.RD)})
		}
	}

	// Reads of loop-undefined registers.
	reported := map[uint8]bool{}
	for i, in := range loop {
		for _, r := range readRegs(in) {
			if !written[r] && !reported[r] {
				reported[r] = true
				warns = append(warns, LintWarning{Pos: i,
					Msg: fmt.Sprintf("reads R%d, which no loop instruction writes (value inherited from outside the loop)", r)})
			}
		}
	}
	return warns
}

func reads(in isa.Instr, r uint8) bool {
	for _, x := range readRegs(in) {
		if x == r {
			return true
		}
	}
	return false
}
