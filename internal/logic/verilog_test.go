package logic_test

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

func TestWriteVerilog(t *testing.T) {
	b := logic.NewBuilder()
	a := b.Input("a")
	x := b.Input("b[0]") // bracketed names must sanitize
	s := b.Xor(a, x)
	q := b.DFF(s, "state")
	y := b.And(q, b.Not(a))
	m := b.Mux2(a, y, b.Const(true))
	b.MarkOutput(m, "y")
	n, err := b.Build(logic.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := logic.WriteVerilog(&sb, n, "toy-module"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{
		"module toy_module(",
		"input clk, rst;",
		"input a;",
		"output y;",
		"reg state;",
		"always @(posedge clk)",
		"state <= 1'b0;",
		"endmodule",
		"?", // the mux
		"^", // the xor
	} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q:\n%s", want, v)
		}
	}
	if strings.Contains(v, "b[0]") {
		t.Error("unsanitized name leaked")
	}
}

func TestWriteVerilogDSPScale(t *testing.T) {
	// The full adder from the shared fixture exports without error and
	// declares every net exactly once.
	n, _, _, _, _, _ := buildFullAdder(t, logic.BuildOptions{InsertFanoutBranches: true})
	var sb strings.Builder
	if err := logic.WriteVerilog(&sb, n, "adder"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	if got := strings.Count(v, "assign "); got < n.NumGates()-10 {
		t.Errorf("suspiciously few assigns: %d for %d gates", got, n.NumGates())
	}
}
