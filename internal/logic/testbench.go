package logic

import (
	"fmt"
	"io"
)

// WriteTestbench emits a self-checking Verilog testbench that applies
// the given per-cycle input vectors to a module produced by WriteVerilog
// and asserts the expected outputs — the role of the paper's
// Perl-generated VHDL testbench ("used to simulate the execution of our
// test program on the core ... for verification purposes").
//
// vectors[i] packs the primary inputs for cycle i (bit b drives
// Inputs()[b]); expected[i] packs the outputs sampled combinationally in
// the same cycle, before the clock edge — the fault simulator's strobe
// point, at which fault.ExpectedOutputs packs them. expected may be nil
// to emit a stimulus-only bench.
func WriteTestbench(w io.Writer, n *Netlist, moduleName string, vectors []uint64, expected []uint64) error {
	if expected != nil && len(expected) != len(vectors) {
		return fmt.Errorf("logic: WriteTestbench: %d expected values for %d vectors", len(expected), len(vectors))
	}
	ni, no := len(n.Inputs()), len(n.Outputs())
	fmt.Fprintf(w, "`timescale 1ns/1ps\nmodule tb;\n")
	fmt.Fprintf(w, "  reg clk = 0, rst = 1;\n")
	fmt.Fprintf(w, "  reg [%d:0] in_vec = 0;\n", ni-1)
	fmt.Fprintf(w, "  wire [%d:0] out_vec;\n", no-1)
	fmt.Fprintf(w, "  integer errors = 0;\n")

	// Port hookup reuses WriteVerilog's deterministic port order:
	// clk, rst, inputs..., outputs... — positional connection keeps the
	// bench independent of name sanitization.
	fmt.Fprintf(w, "  %s dut(clk, rst", moduleName)
	for i := 0; i < ni; i++ {
		fmt.Fprintf(w, ", in_vec[%d]", i)
	}
	for i := 0; i < no; i++ {
		fmt.Fprintf(w, ", out_vec[%d]", i)
	}
	fmt.Fprintf(w, ");\n")
	fmt.Fprintf(w, "  always #5 clk = ~clk;\n")
	fmt.Fprintf(w, "  initial begin\n")
	fmt.Fprintf(w, "    @(negedge clk); rst = 0;\n")
	for i, v := range vectors {
		fmt.Fprintf(w, "    in_vec = %d'h%x; #1;\n", ni, v&(1<<uint(ni)-1))
		if expected != nil {
			fmt.Fprintf(w, "    if (out_vec !== %d'h%x) begin errors = errors + 1; "+
				"$display(\"cycle %d: out=%%h want %x\", out_vec); end\n",
				no, expected[i]&(1<<uint(no)-1), i, expected[i]&(1<<uint(no)-1))
		}
		fmt.Fprintf(w, "    @(negedge clk);\n")
	}
	fmt.Fprintf(w, "    if (errors == 0) $display(\"TESTBENCH PASS (%d cycles)\");\n", len(vectors))
	fmt.Fprintf(w, "    else $display(\"TESTBENCH FAIL: %%0d mismatches\", errors);\n")
	fmt.Fprintf(w, "    $finish;\n  end\nendmodule\n")
	return nil
}
