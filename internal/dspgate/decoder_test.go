package dspgate

import (
	"testing"

	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
)

// TestDecoderMatchesControlTable drives every assigned opcode through
// the gate-level core and compares the execute-stage control flip-flops
// against the shared dsp.ControlBits table — the decoder's ground truth.
func TestDecoderMatchesControlTable(t *testing.T) {
	c := buildCore(t, false)
	n := c.Netlist
	sim := logictest.NewSimulator(n)
	ctrl := map[string]logic.NetID{}
	for _, name := range []string{
		"ex_sub", "ex_accb", "ex_trunc", "ex_mode0", "ex_mode1",
		"ex_zacc", "ex_zprod", "ex_mac", "ex_ldi", "ex_out", "ex_wd",
	} {
		id := n.Lookup("Pipeline." + name)
		if id == logic.InvalidNet {
			t.Fatalf("missing ctrl net %s", name)
		}
		ctrl[name] = id
	}
	for oc := uint32(0); oc < 32; oc++ {
		in, err := isa.Decode(oc << 12)
		word := oc << 12
		sim.Reset()
		sim.SetInputBus(c.Instr, uint64(word))
		sim.Step() // IR
		sim.SetInputBus(c.Instr, 0)
		sim.Step() // decode: ex_* latch

		var want dsp.CtrlBits // zero ctrl word for trap opcodes
		if err == nil {
			want = dsp.ControlBits(in.Op, in.Acc)
		}
		check := func(name string, wantV bool) {
			if got := sim.Value(ctrl[name]); got != wantV {
				t.Errorf("opcode %05b (%v): %s = %v, want %v", oc, in.Op, name, got, wantV)
			}
		}
		check("ex_sub", want.Sub)
		check("ex_accb", want.AccB)
		check("ex_trunc", want.TruncEn)
		check("ex_mode0", want.Mode&1 == 1)
		check("ex_mode1", want.Mode&2 == 2)
		check("ex_zacc", want.ZeroAcc)
		check("ex_zprod", want.ZeroProd)
		check("ex_mac", want.MacFamily)
		check("ex_ldi", want.IsLdi)
		check("ex_out", want.IsOut)
		check("ex_wd", want.WritesDest)
	}
}

// TestGateVerilogExport sanity-checks the full-core Verilog dump.
func TestGateVerilogExport(t *testing.T) {
	c := buildCore(t, false)
	var counter lineCounter
	if err := logic.WriteVerilog(&counter, c.Netlist, "dsp_core"); err != nil {
		t.Fatal(err)
	}
	if counter.lines < c.Netlist.NumGates()/2 {
		t.Fatalf("verilog suspiciously short: %d lines for %d gates", counter.lines, c.Netlist.NumGates())
	}
}

type lineCounter struct{ lines int }

func (lc *lineCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			lc.lines++
		}
	}
	return len(p), nil
}
