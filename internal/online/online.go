// Package online implements in-field periodic self-test: the deployment
// mode the paper's self-test programs exist for. Between bursts of
// functional work, the processor runs a fixed self-test burst — a
// state-normalization preamble followed by a number of template-expanded
// loop iterations — while a MISR compacts its outputs. The burst's
// signature is compared against a golden value recorded at
// characterization time; a mismatch flags the core as faulty.
//
// The normalization preamble (load zero into every register, clear both
// accumulators) makes the burst's response independent of whatever the
// functional workload left behind, so one golden signature serves for
// the lifetime of the part. Callers save and restore their own context
// around a burst, exactly as an OS would around an interrupt-driven
// test slot.
package online

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/isa"
	"repro/internal/lfsr"
	"repro/internal/selftest"
)

// Config sizes a self-test burst.
type Config struct {
	// Iterations is the number of loop iterations per burst.
	Iterations int
	// MISRWidth selects the signature width (default 16).
	MISRWidth int
	// Seed1 fixes the burst's LFSR data (the default is fine; it must
	// simply match between characterization and field).
	Seed1 uint64
}

// Selftest is a characterized periodic self-test: a fixed vector burst
// plus its golden signature.
type Selftest struct {
	cfg    Config
	vecs   []uint64
	golden uint64
}

// New characterizes a burst for the given self-test program: it builds
// the normalization preamble + expanded loop stream and computes the
// golden signature on a fault-free behavioral core.
func New(prog *selftest.Program, cfg Config) (*Selftest, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10
	}
	if cfg.MISRWidth == 0 {
		cfg.MISRWidth = 16
	}
	if _, err := lfsr.NewMISR(cfg.MISRWidth); err != nil {
		return nil, err
	}
	s := &Selftest{cfg: cfg}
	for _, in := range normalizationPreamble() {
		s.vecs = append(s.vecs, uint64(in.Encode()))
	}
	expanded := selftest.Expand(prog, selftest.ExpandOptions{
		Iterations: cfg.Iterations,
		Seed1:      cfg.Seed1,
	})
	s.vecs = append(s.vecs, expanded...)
	// Pipeline drain so the last results reach the output port.
	for i := 0; i < 4; i++ {
		s.vecs = append(s.vecs, 0)
	}

	golden, err := s.runBurst(dsp.New())
	if err != nil {
		return nil, err
	}
	s.golden = golden
	return s, nil
}

// normalizationPreamble zeroes every register and both accumulators so
// the burst response does not depend on the interrupted workload.
func normalizationPreamble() []isa.Instr {
	var p []isa.Instr
	for r := 0; r < isa.NumRegs; r++ {
		p = append(p, isa.Instr{Op: isa.OpLdi, Imm: 0, RD: uint8(r)})
	}
	p = append(p,
		isa.Instr{Op: isa.OpNop},
		isa.Instr{Op: isa.OpMpy, Acc: isa.AccA, RA: 0, RB: 1, RD: 0},
		isa.Instr{Op: isa.OpMpy, Acc: isa.AccB, RA: 0, RB: 1, RD: 0},
		isa.Instr{Op: isa.OpNop},
		isa.Instr{Op: isa.OpNop},
	)
	return p
}

// runBurst feeds the burst into the core and compacts the output port.
func (s *Selftest) runBurst(core *dsp.Core) (uint64, error) {
	m, err := lfsr.NewMISR(s.cfg.MISRWidth)
	if err != nil {
		return 0, err
	}
	for _, v := range s.vecs {
		core.Step(uint32(v))
		m.Absorb(uint64(core.Output()))
	}
	return m.Signature(), nil
}

// Result reports one burst.
type Result struct {
	Signature uint64
	Pass      bool
	Cycles    int
}

// RunBurst executes one self-test burst on the caller's core, saving and
// restoring the architectural context around it, and compares the
// signature against the golden value.
func (s *Selftest) RunBurst(core *dsp.Core) (Result, error) {
	saved := core.SaveState()
	sig, err := s.runBurst(core)
	core.RestoreState(saved)
	if err != nil {
		return Result{}, err
	}
	return Result{Signature: sig, Pass: sig == s.golden, Cycles: len(s.vecs)}, nil
}

// String summarizes the characterization.
func (s *Selftest) String() string {
	return fmt.Sprintf("online selftest: %d cycles/burst, golden signature %0*x",
		len(s.vecs), (s.cfg.MISRWidth+3)/4, s.golden)
}
