package logic_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
)

func TestWriteTestbench(t *testing.T) {
	n, a, bb, cin, _, _ := buildFullAdder(t, logic.BuildOptions{})
	rng := rand.New(rand.NewSource(3))
	vectors := make([]uint64, 16)
	for i := range vectors {
		vectors[i] = rng.Uint64() & (1<<9 - 1)
	}
	_ = a
	_ = bb
	_ = cin
	// WriteTestbench asserts whatever it is given; the values are
	// fault.ExpectedOutputs' to get right.
	exp := make([]uint64, len(vectors))
	for i, v := range vectors {
		exp[i] = v & (1<<5 - 1)
	}
	var sb strings.Builder
	if err := logic.WriteTestbench(&sb, n, "adder", vectors, exp); err != nil {
		t.Fatal(err)
	}
	tb := sb.String()
	for _, want := range []string{
		"module tb;",
		"adder dut(clk, rst",
		"TESTBENCH PASS",
		"$finish;",
	} {
		if !strings.Contains(tb, want) {
			t.Errorf("testbench missing %q", want)
		}
	}
	if got := strings.Count(tb, "if (out_vec !=="); got != len(vectors) {
		t.Errorf("%d assertions for %d vectors", got, len(vectors))
	}
	// Mismatched lengths must error.
	if err := logic.WriteTestbench(&sb, n, "adder", vectors, exp[:3]); err == nil {
		t.Error("expected length-mismatch error")
	}
}
