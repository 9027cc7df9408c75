package dspgate

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/logic/logictest"
)

func buildCore(t *testing.T, branches bool) *Core {
	t.Helper()
	c, err := Build(Options{InsertFanoutBranches: branches})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// crossCheck steps both models with the same instruction stream and
// compares all architectural state every cycle.
func crossCheck(t *testing.T, words []uint32) {
	t.Helper()
	gc := buildCore(t, false)
	sim := logictest.NewSimulator(gc.Netlist)
	beh := dsp.New()
	for cyc, w := range words {
		sim.SetInputBus(gc.Instr, uint64(w))
		sim.Step()
		// Step leaves combinational nets stale (pre-edge); the Out bus is
		// a buffer of the output-port DFF, so re-settle to read the
		// post-edge value the behavioral model exposes.
		sim.Settle()
		beh.Step(w)

		if got, want := uint8(sim.BusValue(gc.Out)), beh.Output(); got != want {
			t.Fatalf("cycle %d (word %05x): out gate=%#x beh=%#x", cyc, w, got, want)
		}
		for r := 0; r < isa.NumRegs; r++ {
			if got, want := uint8(sim.BusValue(gc.Regs[r])), beh.Reg(r); got != want {
				t.Fatalf("cycle %d (word %05x): R%d gate=%#x beh=%#x", cyc, w, r, got, want)
			}
		}
		if got, want := uint32(sim.BusValue(gc.AccABus)), beh.AccValue(isa.AccA); got != want {
			t.Fatalf("cycle %d (word %05x): AccA gate=%#x beh=%#x", cyc, w, got, want)
		}
		if got, want := uint32(sim.BusValue(gc.AccBBus)), beh.AccValue(isa.AccB); got != want {
			t.Fatalf("cycle %d (word %05x): AccB gate=%#x beh=%#x", cyc, w, got, want)
		}
	}
}

func assemble(t *testing.T, src string) []uint32 {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint32, 0, len(prog)+4)
	for _, in := range prog {
		words = append(words, in.Encode())
	}
	for i := 0; i < 4; i++ {
		words = append(words, 0)
	}
	return words
}

func TestCrossCheckDirectedProgram(t *testing.T) {
	crossCheck(t, assemble(t, `
		LD 0x20,R0
		LD 0x30,R1
		MPYA R0,R1,R2
		NOP
		NOP
		OUT R2
		MACA+ R0,R1,R3
		NOP
		NOP
		OUT R3
		MACB- R0,R1,R4
		LD 0x03,R5
		NOP
		SHIFTA R5,R0,R6
		NOP
		NOP
		OUT R6
		MPYTB R0,R1,R7
		MPYSHIFTA R0,R1,R8
		LD 0x0E,R9
		NOP
		MPYSHIFTMACB R9,R1,R10
		MOV R2,R11
		NOP
		NOP
		OUT R11
		LD 0x7F,R0
		LD 0x80,R1
		NOP
		MPYA R0,R1,R12
		MACTA- R0,R1,R13
		NOP
		NOP
		OUT R13
	`))
}

func TestCrossCheckHazards(t *testing.T) {
	// Back-to-back writes and reads exercising the forwarding register
	// and the delay slot.
	crossCheck(t, assemble(t, `
		LD 0x11,R1
		LD 0x22,R1
		MOV R1,R2
		MOV R1,R3
		MOV R2,R2
		OUT R2
		OUT R3
		LD 0x44,R4
		MPYA R4,R4,R4
		MPYA R4,R4,R5
		MACA+ R4,R5,R4
		OUT R4
	`))
}

func TestCrossCheckRandomWords(t *testing.T) {
	// Random 17-bit words, including unassigned opcodes (pipeline
	// bubbles). Architectural state must match cycle for cycle.
	rng := rand.New(rand.NewSource(21))
	words := make([]uint32, 3000)
	for i := range words {
		words[i] = rng.Uint32() & (1<<isa.Width - 1)
	}
	crossCheck(t, words)
}

func TestCrossCheckRandomValidInstructions(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var words []uint32
	for len(words) < 3000 {
		w := rng.Uint32() & (1<<isa.Width - 1)
		if _, err := isa.Decode(w); err == nil {
			words = append(words, w)
		}
	}
	crossCheck(t, words)
}

func TestBranchInsertionPreservesCore(t *testing.T) {
	plain := buildCore(t, false)
	branched := buildCore(t, true)
	sp := logictest.NewSimulator(plain.Netlist)
	sb := logictest.NewSimulator(branched.Netlist)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		w := uint64(rng.Uint32() & (1<<isa.Width - 1))
		sp.SetInputBus(plain.Instr, w)
		sb.SetInputBus(branched.Instr, w)
		sp.Step()
		sb.Step()
		if sp.BusValue(plain.Out) != sb.BusValue(branched.Out) {
			t.Fatalf("cycle %d: outputs diverge", i)
		}
	}
}

func TestRegionsPresent(t *testing.T) {
	c := buildCore(t, true)
	stats := c.Netlist.Stats()
	t.Logf("core: %d nets, %d gates, %d DFFs, %d levels", stats.Nets, stats.Gates, stats.DFFs, stats.Levels)
	for _, region := range ComponentRegions {
		nets := c.Netlist.RegionNets(region)
		if len(nets) == 0 {
			t.Errorf("region %s has no nets", region)
		}
	}
	if stats.DFFs < 200 {
		t.Errorf("expected ≥200 DFFs (regfile alone has 128), got %d", stats.DFFs)
	}
	if stats.Inputs != isa.Width || stats.Outputs != 8 {
		t.Errorf("ports: %d in, %d out", stats.Inputs, stats.Outputs)
	}
}
