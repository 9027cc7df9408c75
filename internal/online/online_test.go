package online

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/selftest"
)

// testProgram is a small fixed self-test loop (keeps the tests
// independent of the metrics engine).
func testProgram() *selftest.Program {
	return &selftest.Program{Loop: []isa.Instr{
		{Op: isa.OpLdRnd, RD: 0, RndImm: true},
		{Op: isa.OpLdRnd, RD: 1, RndImm: true},
		{Op: isa.OpNop},
		{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 1, RD: 2},
		{Op: isa.OpMacP, Acc: isa.AccB, RA: 1, RB: 0, RD: 3},
		{Op: isa.OpNop},
		{Op: isa.OpOut, Src: 2},
		{Op: isa.OpOut, Src: 3},
	}}
}

func TestBurstPassesOnHealthyCore(t *testing.T) {
	st, err := New(testProgram(), Config{Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	core := dsp.New()
	res, err := st.RunBurst(core)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("healthy core failed: sig %x golden %x", res.Signature, st.golden)
	}
	if res.Cycles != len(st.vecs) {
		t.Fatalf("cycles %d != %d", res.Cycles, len(st.vecs))
	}
}

func TestBurstIndependentOfWorkloadState(t *testing.T) {
	st, err := New(testProgram(), Config{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		core := dsp.New()
		// Arbitrary functional workload state.
		for r := 0; r < isa.NumRegs; r++ {
			core.SetReg(r, uint8(rng.Uint32()))
		}
		core.SetAcc(isa.AccA, rng.Uint32())
		core.SetAcc(isa.AccB, rng.Uint32())
		res, err := st.RunBurst(core)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			t.Fatalf("trial %d: burst signature depends on workload state", trial)
		}
	}
}

func TestContextSavedAndRestored(t *testing.T) {
	st, err := New(testProgram(), Config{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	core := dsp.New()
	core.SetReg(5, 0xAB)
	core.SetAcc(isa.AccA, 0x1234)
	before := core.SaveState()
	if _, err := st.RunBurst(core); err != nil {
		t.Fatal(err)
	}
	after := core.SaveState()
	if before != after {
		t.Fatalf("context not restored: %+v vs %+v", before, after)
	}
}

// faultyProbe corrupts one component's output on every cycle — a crude
// permanent-fault model at the behavioral level. The flipped bit sits in
// the limiter's visible window (bits [11:4] of 18-bit signals): an LSB
// error below the window is architecturally invisible by design.
type faultyProbe struct{ comp dsp.Component }

func (p faultyProbe) Observe(comp dsp.Component, mode int, value uint32) uint32 {
	if comp == p.comp {
		return value ^ 1<<uint(p.comp.Width()/2)
	}
	return value
}

func TestBurstCatchesFaultyCore(t *testing.T) {
	st, err := New(testProgram(), Config{Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []dsp.Component{dsp.CompMultiplier, dsp.CompAddSub, dsp.CompLimiter} {
		core := dsp.New()
		core.SetProbe(faultyProbe{comp: comp})
		res, err := st.RunBurst(core)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pass {
			t.Errorf("burst missed a faulty %v", comp)
		}
	}
}

func TestGoldenStableAcrossCharacterizations(t *testing.T) {
	a, err := New(testProgram(), Config{Iterations: 6, Seed1: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testProgram(), Config{Iterations: 6, Seed1: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.golden != b.golden {
		t.Fatal("characterization not deterministic")
	}
	c, err := New(testProgram(), Config{Iterations: 6, Seed1: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.golden == a.golden {
		t.Fatal("different seeds should give different signatures")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(testProgram(), Config{Iterations: 2, MISRWidth: 21}); err == nil {
		t.Fatal("unsupported MISR width should error")
	}
	st, err := New(testProgram(), Config{}) // defaults
	if err != nil {
		t.Fatal(err)
	}
	if len(st.vecs) == 0 {
		t.Fatal("empty burst")
	}
}
